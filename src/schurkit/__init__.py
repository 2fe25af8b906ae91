"""Mixed-norm Schur tests, kernel norms, and coorbit checks on finite spaces.

Everything operates on finite measure spaces with positive point masses, so
suprema are maxima, integrals are weighted sums, and every bound in the
library is verifiable by enumeration.

Each module's `__all__` is its public list, the one place its public names
are declared; the package exports their union and `__version__`. The list is
built before the star imports because `from .mixed_norm import *` rebinds
`mixed_norm` from the module to its function.
"""

from . import coorbit, coverings, kernel_algebra, measure, mixed_norm, operators, oracles, sum_space

__version__ = "0.1.0"

__all__ = ["__version__"]
__all__ += measure.__all__
__all__ += mixed_norm.__all__
__all__ += operators.__all__
__all__ += kernel_algebra.__all__
__all__ += sum_space.__all__
__all__ += coverings.__all__
__all__ += coorbit.__all__
__all__ += oracles.__all__

from .coorbit import *
from .coverings import *
from .kernel_algebra import *
from .measure import *
from .mixed_norm import *
from .operators import *
from .oracles import *
from .sum_space import *
