"""Conditional cuckoo filters: the paper's core contribution (§5-§9).

Public surface:

* variants — :class:`PlainCCF`, :class:`ChainedCCF`, :class:`BloomCCF`,
  :class:`MixedCCF` (build via :func:`make_ccf` / :func:`build_ccf`);
* predicates — :class:`Eq`, :class:`In`, :class:`Range`, :class:`And`,
  :data:`TRUE`;
* range support — :class:`EquiSizeBinner`, :class:`DyadicDecomposer`;
* analysis — sizing and FPR estimators in :mod:`repro.ccf.sizing` and
  :mod:`repro.ccf.fpr`.
"""

from repro.ccf.attributes import AttributeFingerprinter, AttributeSchema
from repro.ccf.base import CompiledQuery, ConditionalCuckooFilterBase
from repro.ccf.binning import DyadicDecomposer, EquiSizeBinner, bin_predicate_for_ccf
from repro.ccf.bloom_ccf import BloomCCF
from repro.ccf.chain import PairGeometry
from repro.ccf.chained import ChainedCCF
from repro.ccf.factory import CCF_KINDS, build_ccf, make_ccf
from repro.ccf.mixed import MixedCCF
from repro.ccf.params import CCFParams, LARGE_PARAMS, SMALL_PARAMS
from repro.ccf.plain import PlainCCF
from repro.ccf.range_ccf import DyadicRangeCCF
from repro.ccf.predicates import (
    And,
    Eq,
    In,
    Predicate,
    Range,
    TRUE,
    TruePredicate,
    UnsupportedPredicateError,
)
from repro.ccf.mmapio import open_segment, read_segment_meta, write_segment
from repro.ccf.serialize import SerializeError, dumps, loads
from repro.ccf.views import MarkedKeyFilter

__all__ = [
    "And",
    "AttributeFingerprinter",
    "AttributeSchema",
    "BloomCCF",
    "CCFParams",
    "CCF_KINDS",
    "ChainedCCF",
    "CompiledQuery",
    "ConditionalCuckooFilterBase",
    "DyadicDecomposer",
    "DyadicRangeCCF",
    "Eq",
    "EquiSizeBinner",
    "In",
    "LARGE_PARAMS",
    "MarkedKeyFilter",
    "MixedCCF",
    "PairGeometry",
    "PlainCCF",
    "Predicate",
    "Range",
    "SMALL_PARAMS",
    "SerializeError",
    "TRUE",
    "TruePredicate",
    "UnsupportedPredicateError",
    "bin_predicate_for_ccf",
    "build_ccf",
    "dumps",
    "loads",
    "make_ccf",
    "open_segment",
    "read_segment_meta",
    "write_segment",
]
