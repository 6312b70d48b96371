"""Exact arithmetic for Hecke characters of imaginary quadratic fields."""

from __future__ import annotations

__version__ = "0.1.0"

from .chargroup import (DirichletChar, GroupChar, dirichlet_from_kronecker,
                        enumerate_eta, restrict_to_Z)
from .classgroup import class_group, class_structure
from .cmform import (CMForm, coefficient_field_probe, hecke_verify,
                     ideals_of_norm_up_to, q_expansion)
from .grossenchar import (Grossenchar, GrossencharError, build, conductor,
                          evaluate, from_record, minimal_conductor, record)
from .quadfield import FieldE, QIdeal, QuadElem, fd, is_fundamental, kronecker
from .resunits import (UnitsStructure, dyadic_structure, unit_count,
                       units_structure)
from .survey import (HigherOrderSurvey, Rejection, SearchReport, TableRow,
                     all_rows, survey_h1, survey_higher_order,
                     survey_quadratic_modulus, theorem2_tables)
from .valuefield import (AlgebraElement, RationalityField, ValueAlgebra,
                         check_Q1, check_R1, cubic_field_disc, is_cube,
                         is_square, rationality_field, value_field_degree)

__all__ = [
    "AlgebraElement",
    "CMForm",
    "DirichletChar",
    "FieldE",
    "Grossenchar",
    "GrossencharError",
    "GroupChar",
    "HigherOrderSurvey",
    "QIdeal",
    "QuadElem",
    "RationalityField",
    "Rejection",
    "SearchReport",
    "TableRow",
    "UnitsStructure",
    "ValueAlgebra",
    "all_rows",
    "build",
    "check_Q1",
    "check_R1",
    "class_group",
    "class_structure",
    "coefficient_field_probe",
    "conductor",
    "cubic_field_disc",
    "dirichlet_from_kronecker",
    "dyadic_structure",
    "enumerate_eta",
    "evaluate",
    "fd",
    "from_record",
    "hecke_verify",
    "ideals_of_norm_up_to",
    "is_cube",
    "is_fundamental",
    "is_square",
    "kronecker",
    "minimal_conductor",
    "q_expansion",
    "rationality_field",
    "record",
    "restrict_to_Z",
    "survey_h1",
    "survey_higher_order",
    "survey_quadratic_modulus",
    "theorem2_tables",
    "unit_count",
    "units_structure",
    "value_field_degree",
    "__version__",
]
