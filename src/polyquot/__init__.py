"""polyquot: rank-3/4 abstract regular polytopes, universal amalgams and
their quotients."""

from .presentations import Presentation, format_presentation
from .coset import CosetTable, coset_enumeration, perm_rep
from .permgroups import (MarkedGroup, Subgroup, SubgroupClass, BoundExceeded,
                         conjugates, product_set_intersect)
from .catalog import (SchlafliSymbol, CatalogEntry, coxeter_presentation,
                      central_quotient, rank3_catalog, dihedron, hosohedron,
                      entry_by_name)
from .polytopes import (Polytope, flag_graph_from_group, polytope_from_group,
                        is_polytopal, intersection_condition, section,
                        section_profile, is_regular, dual, are_isomorphic)
from .amalgam import (AmalgamSpec, UniversalResult, amalgam_presentation,
                      build_universal, classify_table1, twisted_over, TABLE1,
                      case_spec)
from .quotients import (QuotientRecord, ClassificationReport, is_semisparse,
                        semisparse_classes, quotient_polytope,
                        classify_quotients)
from .config import RunConfig

__version__ = "0.1.0"
