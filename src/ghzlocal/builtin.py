"""The three canonical models M3, M1, M2 and their reproduction report.

Each model is built class by class from the triad structure each
``PartitionElement`` carries (``satisfied``, ``violated``) and the sites of
each ``Triad``; the test suite derives the same rules independently and
validates every published count and probability against the built models.

* M3 - deterministic, one d-distribution per class, three U-flags each:
  a starred class masks the x/y sites outside its satisfied triad (so it keeps
  that triad and all z detectable), a triple-intersection class masks exactly
  its violated triad.
* M1 - starred classes are never detected at all; a triple-intersection state
  has three d-distributions, each masking a single site of its M3 mask.
* M2 - two U-flags per d-distribution, z always detected: a starred class
  takes the three site pairs inside its M3 mask, a triple-intersection class
  all nine same-triad pairs that touch its violated triad.

``builtin_model`` hands out one shared instance per selector per process, built
on first use: a model is immutable, and its integer views fill once.
``model_m3``, ``model_m1`` and ``model_m2`` build a fresh model on every call.

The reproduction report is one table per model: a flat list of rows
``(name, expected, actual)``.  ``expected`` is the published value as text;
``actual`` is always computed from the model handed to the report, never
copied from the rules, so a wrong model fails the rows it breaks.  Nothing of
the report is kept: every call recomputes every row.  The rows read the class
families (so a report takes a uniform model, as all three are) and the integer
views of ``models.py``, and build one ``Fraction`` per printed value from
integer sums.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import cache
from itertools import combinations
from typing import Callable, Iterable, Optional

from . import BUILTIN_SELECTORS  # noqa: F401  (re-exported)
from .models import (
    DDistribution,
    Model,
    UndefinedConditionalError,
    _detecting,
    _site_mask,
    census,
    combination_distribution,
    detection_probability,
    is_deterministic,
    m_specification,
    verify_ac,
    verify_dm,
)
from .state_space import (
    SITES,
    XY_SITES,
    Z_SITES,
    MeasurementContext,
    PartitionElement,
    Site,
    Triad,
    _Value,
    partition_classes,
)

E = PartitionElement


def _m3_mask(element: PartitionElement) -> tuple[Site, ...]:
    """The sites M3 leaves undetected: the x/y sites outside a starred class's
    satisfied triad, or the sites of a triple class's violated triad."""
    if element.is_starred:
        (satisfied,) = element.satisfied
        return tuple(s for s in XY_SITES if s not in satisfied.sites)
    (violated,) = element.violated
    return violated.sites


def _m2_pairs(element: PartitionElement) -> Iterable[tuple[Site, Site]]:
    """The site pairs inside a starred class's M3 mask, or the nine same-triad
    pairs that touch a triple class's violated triad."""
    if element.is_starred:
        return combinations(_m3_mask(element), 2)
    (violated,) = element.violated
    return [(a, b) for t in Triad for a, b in combinations(t.sites, 2) if a in violated.sites or b in violated.sites]


def _built(name: str, masks: Callable[[PartitionElement], Iterable[Iterable[Site]]]) -> Model:
    """The model whose family for each class masks each site set ``masks`` lists."""
    families = {el: tuple(DDistribution.with_undetected(mask) for mask in masks(el)) for el in E}
    return Model.from_element_families(name, families)


def model_m3() -> Model:
    """Deterministic model with three detection failures per object."""
    return _built("M3", lambda el: [_m3_mask(el)])


def model_m1() -> Model:
    """Single detection failure on the detectable half, total failure elsewhere."""
    return _built("M1", lambda el: [SITES] if el.is_starred else [(s,) for s in _m3_mask(el)])


def model_m2() -> Model:
    """Two detection failures per object, z components always detected."""
    return _built("M2", _m2_pairs)


_BUILDERS: dict[str, Callable[[], Model]] = {"M3": model_m3, "M1": model_m1, "M2": model_m2}


@cache
def _shared(selector: str) -> Model:
    return _BUILDERS[selector]()


def builtin_model(selector: str) -> Model:
    """The one shared model for a selector, built on first use; raises KeyError for
    unknown selectors.  A model is immutable, so every caller may hold the same one."""
    try:
        return _shared(selector)
    except KeyError:
        raise KeyError(f"unknown model selector {selector!r}; use M3, M1 or M2") from None


# ---------------------------------------------------------------------------
# reproduction report


class ReproCheck(_Value):
    _fields = ("name", "expected", "actual")

    def __init__(self, name: str, expected: str, actual: str) -> None:
        self._set(name, expected, actual)

    @property
    def passed(self) -> bool:
        return self.expected == self.actual

    @property
    def line(self) -> str:
        """The report line: PASS/FAIL tag, check name, expected and actual value."""
        return f"{'PASS' if self.passed else 'FAIL'}  {self.name}: expected {self.expected}, got {self.actual}"


class ReproductionReport(_Value):
    _fields = ("model", "checks")

    def __init__(self, model: str, checks: tuple[ReproCheck, ...]) -> None:
        self._set(model, checks)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


_Row = tuple[str, str, str]

# M1 footnote: detection probabilities of contexts within the class I&II&III.
_M1_RESTRICTED: tuple[tuple[tuple[str, ...], str], ...] = (
    (("x1",), "2/3"),
    (("y1",), "1"),
    (("x1", "y2"), "2/3"),
    (("x1", "x2"), "1/3"),
    (("x1", "x2", "x3"), "0"),
    (("x1", "y2", "x3"), "1/3"),
    (("x1", "y2", "y3"), "2/3"),
)


def _yes(flag: bool) -> str:
    return "yes" if flag else "no"


def _same(values: Iterable[object], scale: Optional[int] = None) -> str:
    """The one value shared by all ``values``, as a string, or "mixed"; with a ``scale``,
    the values are integer numerators and the string is that of ``value / scale``."""
    distinct = set(values)
    if len(distinct) != 1:
        return "mixed"
    value = distinct.pop()
    return str(value if scale is None else Fraction(value, scale))


def _singles(model: Model, sites: Iterable[Site]) -> str:
    """The detection probability shared by every single site given."""
    table = model._contexts
    return _same((table[1 << s.index][0] for s in sites), table.scale)


def _triad_events(model: Model) -> dict[Triad, tuple[Fraction, bool]]:
    """Per triad, the conditional mass of its constraint event, and whether every
    satisfying outcome triple has conditional 1/4 and every other triple 0.  Read from
    the triad's context-table entry, whose buckets are keyed by outcome sign mask."""
    events = {}
    for triad in Triad:
        detected, buckets = model._contexts[triad.mask]
        if detected == 0:
            raise UndefinedConditionalError(f"model {model.name!r} never detects context {triad.context.label}")
        satisfying = [key for key in buckets if triad.holds(key)]  # at 1/4 each they carry all the mass, the others none
        mass = sum(buckets[key] for key in satisfying)
        events[triad] = (Fraction(mass, detected), all(4 * buckets[key] == detected for key in satisfying))
    return events


def _event_rows(events: dict[Triad, tuple[Fraction, bool]], quarter: str) -> list[_Row]:
    return [
        ("every triad constraint event is certain on detection", "yes", _yes(all(m == 1 for m, _ in events.values()))),
        (f"each satisfying outcome triple has conditional 1/4 ({quarter})", "yes", _yes(all(x for _, x in events.values()))),
    ]


def _m3_rows(model: Model) -> list[_Row]:
    counts = census(model)
    dist = combination_distribution(model)
    events = _triad_events(model)
    families = model.element_families()
    # the I0 class yields the 8 outcome patterns (i1,0,k; 0,j2,k; 0,j3,k) with j3 = i1*j2
    patterns = {(i1, 0, k, 0, j2, k, 0, i1 * j2, k) for k in (1, -1) for i1 in (1, -1) for j2 in (1, -1)}
    i0_specs = {m_specification(s, families[E.I0][0]).values for s in partition_classes()[E.I0]}
    triple_detected = [el for el, family in families.items() if _detecting(family, Triad.I.mask)]
    tally = Counter(dist.masses.values())
    return [
        ("deterministic", "yes", _yes(is_deterministic(model))),
        ("distinct d-distributions", "8", str(counts.d_distributions)),
        ("distinct m-specifications", "96", str(counts.m_specifications)),
        ("distinct combinations", "48", str(counts.combinations)),
        (
            "I0 m-specifications are the 8 patterns (i1,0,k;0,j2,k;0,j3,k) with i1*j2*j3=+1",
            "match",
            "match" if i0_specs == patterns else "mismatch",
        ),
        ("detection probability, z singles", "1", _singles(model, Z_SITES)),
        ("detection probability, x/y singles", "1/2", _singles(model, XY_SITES)),
        (
            "states triple-detected in the first triad",
            "the 16 states of I0",
            "the 16 states of I0" if triple_detected == [E.I0] else f"{16 * len(triple_detected)} other states",
        ),
        ("conditional probability of the first-triad constraint event", "16/16", f"{16 * events[Triad.I][0]}/16"),
        *_event_rows(events, "4/16"),
        (
            "combination masses",
            "16 at 1/32 and 32 at 1/64",
            f"{tally[Fraction(1, 32)]} at 1/32 and {tally[Fraction(1, 64)]} at 1/64"
            if set(tally) <= {Fraction(1, 32), Fraction(1, 64)}
            else "unexpected masses",
        ),
        ("total combination mass", "1", str(dist.total_mass)),
    ]


def _m1_rows(model: Model) -> list[_Row]:
    counts = census(model)
    dist = combination_distribution(model)
    occurrences, weights = model._mspecs  # per m-specification code, 0 the all-zero one
    events = _triad_events(model)
    families = model.element_families()
    # outcome sign masks of the m-specifications that detect the whole first triad
    mask = Triad.I.mask
    triples = Counter(code & mask for code in occurrences if code >> 9 & mask == mask)
    return [
        ("deterministic", "no", _yes(is_deterministic(model))),
        (
            "starred-class states are never detected",
            "yes",
            _yes(all(families[el] == (DDistribution.all_undetected(),) for el in E if el.is_starred)),
        ),
        (
            "three d-distributions per triple-intersection state",
            "yes",
            _yes(all(len(families[el]) == 3 for el in E if not el.is_starred)),
        ),
        # discounting the all-undetected d-distribution and m-specification
        ("distinct single-failure d-distributions", "6", str(counts.d_distributions - 1)),
        ("distinct m-specifications (detectable half)", "96", str(counts.m_specifications - 1)),
        *(
            (
                f"detection probability of {','.join(labels)} within I&II&III",
                expected,
                str(detection_probability(model, MeasurementContext.from_labels(*labels), restrict=E.I_II_III)),
            )
            for labels, expected in _M1_RESTRICTED
        ),
        ("overall detection, x/y singles", "5/12", _singles(model, XY_SITES)),
        ("overall detection, z singles", "1/2", _singles(model, Z_SITES)),
        (
            "mass of each detectable m-specification",
            "1/192",
            _same((w for code, w in weights.items() if code), model._contexts.scale),
        ),
        ("m-specifications triple-detecting the first triad", "48", str(sum(triples.values()))),
        (
            "each satisfying outcome triple occurs in 12/48 of them",
            "yes",
            _yes(len(triples) == 4 and all(Triad.I.holds(key) and n == 12 for key, n in triples.items())),
        ),
        *_event_rows(events, "12/48"),
        ("distinct combinations", "48", str(len(dist.masses))),
        ("combination masses uniform", "1/96 each", _same(f"{m} each" for m in dist.masses.values())),
        ("mass of the all-undetected marker", "1/2", str(dist.undetected)),
        ("total combination mass", "1", str(dist.total_mass)),
    ]


def _m2_rows(model: Model) -> list[_Row]:
    counts = census(model)
    ddists = [dd for family in model.element_families().values() for dd in family]
    return [
        ("every d-distribution has exactly two undetected sites", "yes", _yes(all(dd.undetected_count == 2 for dd in ddists))),
        ("z sites always detected", "yes", _yes(_detecting(ddists, _site_mask(Z_SITES)) == ddists)),
        ("distinct m-specifications", "192", str(counts.m_specifications)),
        ("distinct combinations", "96", str(counts.combinations)),
        ("pooled occurrence multiplicity of every m-specification", "4", _same(model._mspecs[0].values())),
    ]


_ROWS: dict[str, Callable[[Model], list[_Row]]] = {"M3": _m3_rows, "M1": _m1_rows, "M2": _m2_rows}


def reproduce_section4(selector: str) -> ReproductionReport:
    """Recompute every published count and probability for one built-in model."""
    model = builtin_model(selector)
    rows = _ROWS[selector](model) + [
        (name, "pass", "pass" if verify(model).passed else "fail")
        for name, verify in (
            ("adequacy condition holds", verify_ac),
            ("detection-masking condition holds", verify_dm),
        )
    ]
    return ReproductionReport(selector, tuple(ReproCheck(*row) for row in rows))
