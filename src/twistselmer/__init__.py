"""Two-isogeny Selmer data and Tamagawa ratios across quadratic twist
families of elliptic curves over Q, with Gaussian-law statistics for
additive functions on quadratic characters and the supporting
squarefree-ideal counting in quadratic number fields.

The package root exports only __version__; import each name from its
module (arith, quadfield, characters, selmer, ekstats, cli), so that a
command loads only the modules it runs."""

__version__ = "0.1.0"
