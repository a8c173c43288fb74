"""Reference automaton gallery: four configurations with known structure.

Each entry pins the exact classification of one (substitution, digit)
automaton:

* sync3-tau0   -- 1->12, 2->13, 3->23, digit 0, simplified states: a single
                  recurrent class (the diagonal, a coboundary) inside a
                  graph that is not strongly connected.
* nonsync2-tau0 -- 1->112, 2->221, digit 0, simplified states: two recurrent
                  classes; the diagonal is a coboundary, the off-diagonal
                  class has positive variance (the limit law mixes an atom
                  with a normal).
* nonsync2-tau1 -- same substitution, digit 1, full states: strongly
                  connected, aperiodic, positive variance (pure normal law).
* nonsync2-tau2 -- same substitution, digit 2, full states: two components,
                  exactly one of which is a coboundary.

``run_gallery`` re-derives everything exactly and reports pass/fail per
claim; it is the machine-checked version of the package's reference plots.
"""

from __future__ import annotations

from dataclasses import dataclass

from .automata import build_simplified_automaton, build_tau_automaton
from .markov import (
    ChainGraph,
    asymptotic_variance,
    expected_payoff,
    is_strongly_connected,
    recurrent_classes,
    weakly_connected_components,
)
from .substitution import eigenvector_for, matrix_of, parse_substitution

SYNC3 = "1: 12\n2: 13\n3: 23"
NONSYNC2 = "1: 112\n2: 221"


@dataclass(frozen=True)
class GalleryCheck:
    name: str
    claim: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class GalleryEntry:
    name: str
    chain: ChainGraph
    checks: tuple[GalleryCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _diagonal_states(chain: ChainGraph) -> set[int]:
    return {
        i for i, (a, v) in enumerate(chain.states) if v and v[0] == a
    }


def _entry(name: str, text: str, tau: int, simplified: bool, claims) -> GalleryEntry:
    sub = parse_substitution(text)
    gamma = eigenvector_for(matrix_of(sub), 1)
    if gamma is None:
        raise ValueError(f"{name}: the occurrence matrix has no eigenvalue 1")
    chain = (
        build_simplified_automaton(sub, gamma)
        if simplified
        else build_tau_automaton(sub, gamma, tau)
    )
    return GalleryEntry(name, chain, tuple(claims(name, chain)))


def _check(name, claim, passed, detail=""):
    return GalleryCheck(name, claim, bool(passed), detail)


def _sync3_claims(name: str, chain: ChainGraph):
    classes = recurrent_classes(chain)
    yield _check(name, "one recurrent class", len(classes) == 1, f"found {len(classes)}")
    yield _check(name, "not strongly connected", not is_strongly_connected(chain))
    diag = _diagonal_states(chain)
    only = classes[0]
    yield _check(
        name,
        "recurrent class is the diagonal",
        set(only.states) == diag,
        str([chain.state_labels[s] for s in only.states]),
    )
    yield _check(name, "diagonal payoff is a coboundary", only.coboundary)
    yield _check(name, "zero stationary mean", expected_payoff(chain, only) == 0)


def _nonsync2_tau0_claims(name: str, chain: ChainGraph):
    classes = recurrent_classes(chain)
    yield _check(name, "exactly two recurrent classes", len(classes) == 2, f"found {len(classes)}")
    diag = _diagonal_states(chain)
    on = [c for c in classes if set(c.states) <= diag]
    off = [c for c in classes if not set(c.states) <= diag]
    yield _check(name, "one class is the diagonal", len(on) == 1 and set(on[0].states) == diag)
    yield _check(name, "diagonal payoff is a coboundary", on and on[0].coboundary)
    if off:
        variance = asymptotic_variance(chain, off[0])
        yield _check(
            name,
            "off-diagonal class: no coboundary, positive variance",
            not off[0].coboundary and variance > 0,
            f"variance {variance}",
        )


def _nonsync2_tau1_claims(name: str, chain: ChainGraph):
    yield _check(name, "strongly connected", is_strongly_connected(chain))
    classes = recurrent_classes(chain)
    yield _check(name, "aperiodic", len(classes) == 1 and classes[0].period == 1)
    if classes:
        variance = asymptotic_variance(chain, classes[0])
        yield _check(
            name,
            "no coboundary, positive variance",
            not classes[0].coboundary and variance > 0,
            f"variance {variance}",
        )


def _nonsync2_tau2_claims(name: str, chain: ChainGraph):
    weak = weakly_connected_components(chain)
    yield _check(name, "two components", len(weak) == 2, f"found {len(weak)}")
    classes = recurrent_classes(chain)
    yield _check(name, "two recurrent classes", len(classes) == 2)
    cob = [c for c in classes if c.coboundary]
    yield _check(name, "exactly one coboundary class", len(cob) == 1)
    other = [c for c in classes if not c.coboundary]
    if other:
        variance = asymptotic_variance(chain, other[0])
        yield _check(name, "other class has positive variance", variance > 0, f"variance {variance}")


def run_gallery() -> list[GalleryEntry]:
    """Build all four reference configurations and verify their claims."""
    return [
        _entry("sync3-tau0", SYNC3, 0, True, _sync3_claims),
        _entry("nonsync2-tau0", NONSYNC2, 0, True, _nonsync2_tau0_claims),
        _entry("nonsync2-tau1", NONSYNC2, 1, False, _nonsync2_tau1_claims),
        _entry("nonsync2-tau2", NONSYNC2, 2, False, _nonsync2_tau2_claims),
    ]
