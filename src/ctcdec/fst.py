"""Weighted finite-state transducers over the tropical semiring.

Just enough algebra to build and search CTC decoding graphs: mutable
construction, composition with an epsilon filter, determinization of
(ilabel, olabel)-encoded labels, minimization, connection, and n-best
shortest paths. Arc label 0 is epsilon on both tapes.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from . import semiring
from .errors import ConfigurationError, ParseError, PreconditionError, ResourceError
from .symbols import EPSILON, SymbolTable

NO_STATE = -1
_NEG_INF = float("-inf")

# Budget floor so that determinizing tiny machines never trips the guard;
# the 10x term is what scales on real graphs.
_DET_BUDGET_FLOOR = 1000


@dataclass(frozen=True)
class Arc:
    ilabel: int
    olabel: int
    weight: float
    nextstate: int

    def sort_key(self) -> tuple[int, int, int, float]:
        return (self.ilabel, self.olabel, self.nextstate, self.weight)


class WeightedFst:
    """A mutable WFST with dense integer states.

    Arc weights live in the tropical semiring (see `semiring`). Symbol
    tables are carried along so composition can verify tape compatibility;
    id 0 must be epsilon in both.
    """

    def __init__(self, isymbols: SymbolTable | None = None, osymbols: SymbolTable | None = None):
        self.isymbols = isymbols if isymbols is not None else SymbolTable.with_epsilon()
        self.osymbols = osymbols if osymbols is not None else SymbolTable.with_epsilon()
        self.start = NO_STATE
        self._arcs: list[list[Arc]] = []
        self.finals: dict[int, float] = {}
        self._frozen: ArcArrays | None = None  # built by `arc_arrays`, dropped when the arcs change

    # -- construction ----------------------------------------------------

    def add_state(self) -> int:
        self._frozen = None
        self._arcs.append([])
        return len(self._arcs) - 1

    def add_states(self, n: int) -> None:
        for _ in range(n):
            self.add_state()

    def set_start(self, state: int) -> None:
        self._check_state(state)
        self.start = state

    def set_final(self, state: int, weight: float = semiring.ONE) -> None:
        self._check_state(state)
        self.finals[state] = semiring.plus(self.finals.get(state, semiring.ZERO), weight)

    def add_arc(self, src: int, ilabel: int, olabel: int, weight: float, dst: int) -> None:
        self._check_state(src)
        self._check_state(dst)
        if ilabel < 0 or olabel < 0:
            raise ConfigurationError("arc labels must be >= 0")
        self._frozen = None
        self._arcs[src].append(Arc(ilabel, olabel, weight, dst))

    def _check_state(self, state: int) -> None:
        if not 0 <= state < len(self._arcs):
            raise ConfigurationError(f"state {state} does not exist")

    # -- inspection ------------------------------------------------------

    def num_states(self) -> int:
        return len(self._arcs)

    def num_arcs(self) -> int:
        return sum(len(arcs) for arcs in self._arcs)

    def states(self) -> range:
        return range(len(self._arcs))

    def arcs(self, state: int) -> list[Arc]:
        return self._arcs[state]

    def final_weight(self, state: int) -> float:
        return self.finals.get(state, semiring.ZERO)

    def is_empty(self) -> bool:
        return self.start == NO_STATE or not self._arcs

    def sort_arcs(self) -> None:
        """Order arcs by (ilabel, olabel, nextstate) for reproducible output."""
        self._frozen = None
        for arcs in self._arcs:
            arcs.sort(key=Arc.sort_key)

    def arc_arrays(self) -> "ArcArrays":
        """The arcs frozen into read-only arrays.

        Built on the first call and cached until `add_state`, `add_arc` or
        `sort_arcs` changes them. The start state and final weights are
        not frozen; read them from the machine.
        """
        if self._frozen is None:
            self._frozen = ArcArrays.freeze(self)
        return self._frozen

    def copy(self) -> "WeightedFst":
        out = WeightedFst(self.isymbols.copy(), self.osymbols.copy())
        out.start = self.start
        out._arcs = [list(arcs) for arcs in self._arcs]
        out.finals = dict(self.finals)
        return out

    @classmethod
    def linear(
        cls,
        ilabels: Sequence[int],
        olabels: Sequence[int] | None = None,
        weights: Sequence[float] | None = None,
        isymbols: SymbolTable | None = None,
        osymbols: SymbolTable | None = None,
        final_weight: float = semiring.ONE,
    ) -> "WeightedFst":
        """A single-path transducer; olabels default to ilabels (acceptor)."""
        if olabels is None:
            olabels = ilabels
        if len(olabels) != len(ilabels):
            raise ConfigurationError("ilabels and olabels must have equal length")
        if weights is None:
            weights = [semiring.ONE] * len(ilabels)
        fst = cls(isymbols, osymbols)
        state = fst.add_state()
        fst.set_start(state)
        for il, ol, w in zip(ilabels, olabels, weights):
            nxt = fst.add_state()
            fst.add_arc(state, il, ol, w, nxt)
            state = nxt
        fst.set_final(state, final_weight)
        return fst

    # -- text format -----------------------------------------------------

    def to_text(self) -> str:
        """One `src dst ilabel olabel weight` line per arc, then `state weight` finals.

        State 0 is the start state by convention; every construction op in
        this module numbers its result that way.
        """
        lines = []
        for state in self.states():
            for arc in sorted(self._arcs[state], key=Arc.sort_key):
                lines.append(f"{state} {arc.nextstate} {arc.ilabel} {arc.olabel} {_fmt(arc.weight)}")
        for state in sorted(self.finals):
            lines.append(f"{state} {_fmt(self.finals[state])}")
        return "\n".join(lines) + ("\n" if lines else "")

    def write(self, path: str | Path) -> None:
        Path(path).write_text(self.to_text(), encoding="utf-8")

    @classmethod
    def from_text(
        cls,
        text: str,
        isymbols: SymbolTable | None = None,
        osymbols: SymbolTable | None = None,
        source: str = "<fst>",
    ) -> "WeightedFst":
        """Parse the text format. State 0 is the start state when any state exists.

        A weight may be +inf (the semiring zero) but not NaN or -inf.
        """
        fst = cls(isymbols, osymbols)
        known_il = set(fst.isymbols.ids()) if isymbols is not None else None
        known_ol = set(fst.osymbols.ids()) if osymbols is not None else None
        pending: list[tuple[int, int, int, int, float]] = []
        finals: list[tuple[int, float]] = []
        max_state = -1
        for lineno, line in enumerate(text.splitlines(), 1):
            line = line.strip()
            if not line:
                continue
            parts = line.split()
            try:
                if len(parts) == 5:
                    src, dst, il, ol = (int(p) for p in parts[:4])
                    if min(src, dst) < 0:
                        raise ValueError(f"state ids must be >= 0, got {src} and {dst}")
                    if min(il, ol) < 0:
                        raise ValueError(f"labels must be >= 0, got {il} and {ol}")
                    if known_il is not None and il not in known_il:
                        raise ValueError(f"input label {il} not in the symbol table")
                    if known_ol is not None and ol not in known_ol:
                        raise ValueError(f"output label {ol} not in the symbol table")
                    w = float(parts[4])
                    if not w > _NEG_INF:
                        raise ValueError(f"arc weight {parts[4]!r} is NaN or -inf")
                    pending.append((src, dst, il, ol, w))
                    max_state = max(max_state, src, dst)
                elif len(parts) == 2:
                    state = int(parts[0])
                    if state < 0:
                        raise ValueError(f"state id must be >= 0, got {state}")
                    w = float(parts[1])
                    if not w > _NEG_INF:
                        raise ValueError(f"final weight {parts[1]!r} is NaN or -inf")
                    finals.append((state, w))
                    max_state = max(max_state, state)
                else:
                    raise ValueError("expected arc or final-state line")
            except ValueError as exc:
                raise ParseError(str(exc), source=source, line=lineno) from None
        if max_state >= 0:
            fst.add_states(max_state + 1)
            fst.set_start(0)
        for src, dst, il, ol, w in pending:
            fst.add_arc(src, il, ol, w, dst)
        for state, w in finals:
            fst.set_final(state, w)
        return fst

    @classmethod
    def read(
        cls,
        path: str | Path,
        isymbols: SymbolTable | None = None,
        osymbols: SymbolTable | None = None,
    ) -> "WeightedFst":
        return cls.from_text(Path(path).read_text(encoding="utf-8"), isymbols, osymbols, source=str(path))


def _fmt(weight: float) -> str:
    return f"{weight + 0.0:.6f}"


@dataclass(frozen=True, eq=False)
class ArcArrays:
    """The arcs of a `WeightedFst` as read-only arrays in CSR form.

    State s owns arcs `offsets[s]:offsets[s + 1]`, in the machine's arc
    order. `epsilon` holds, for each state that has any, its label-0 arcs
    as `(olabel, weight, nextstate)` in arc order, and `has_epsilon` marks
    those states.
    """

    offsets: np.ndarray
    ilabel: np.ndarray
    olabel: np.ndarray
    weight: np.ndarray
    nextstate: np.ndarray
    max_ilabel: int
    epsilon: dict[int, tuple[tuple[int, float, int], ...]]
    has_epsilon: np.ndarray

    @classmethod
    def freeze(cls, fst: WeightedFst) -> "ArcArrays":
        n = fst.num_states()
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum([len(fst.arcs(s)) for s in fst.states()], out=offsets[1:])
        arcs = [arc for s in fst.states() for arc in fst.arcs(s)]
        ilabel = np.fromiter((a.ilabel for a in arcs), np.int64, len(arcs))
        olabel = np.fromiter((a.olabel for a in arcs), np.int64, len(arcs))
        weight = np.fromiter((a.weight for a in arcs), np.float64, len(arcs))
        nextstate = np.fromiter((a.nextstate for a in arcs), np.int64, len(arcs))
        epsilon: dict[int, list[tuple[int, float, int]]] = {}
        for i in np.flatnonzero(ilabel == 0).tolist():
            state = int(np.searchsorted(offsets, i, side="right")) - 1
            arc = arcs[i]
            epsilon.setdefault(state, []).append((arc.olabel, arc.weight, arc.nextstate))
        has_epsilon = np.zeros(n, dtype=bool)
        has_epsilon[list(epsilon)] = True
        for array in (offsets, ilabel, olabel, weight, nextstate, has_epsilon):
            array.flags.writeable = False
        return cls(
            offsets, ilabel, olabel, weight, nextstate,
            int(ilabel.max(initial=0)), {s: tuple(a) for s, a in epsilon.items()}, has_epsilon,
        )


# -- connect -------------------------------------------------------------


def connect(fst: WeightedFst) -> WeightedFst:
    """Keep only states on some start-to-final path.

    The start state is renumbered to 0 (the text format's convention);
    other surviving states keep their relative order.
    """
    out = WeightedFst(fst.isymbols.copy(), fst.osymbols.copy())
    if fst.is_empty():
        return out
    accessible = _reachable(fst.start, lambda s: (a.nextstate for a in fst.arcs(s)))
    reverse: dict[int, list[int]] = {s: [] for s in fst.states()}
    for state in fst.states():
        for arc in fst.arcs(state):
            reverse[arc.nextstate].append(state)
    coaccessible: set[int] = set()
    stack = [s for s in fst.finals if s in accessible]
    while stack:
        state = stack.pop()
        if state in coaccessible:
            continue
        coaccessible.add(state)
        stack.extend(p for p in reverse[state] if p not in coaccessible)
    keep = accessible & coaccessible
    if fst.start not in keep:
        return out
    order = [fst.start] + [s for s in sorted(keep) if s != fst.start]
    remap = {}
    for state in order:
        remap[state] = out.add_state()
    out.set_start(remap[fst.start])
    for state in order:
        for arc in fst.arcs(state):
            if arc.nextstate in keep:
                out.add_arc(remap[state], arc.ilabel, arc.olabel, arc.weight, remap[arc.nextstate])
    for state, weight in fst.finals.items():
        if state in keep:
            out.set_final(remap[state], weight)
    return out


def _reachable(start: int, successors) -> set[int]:
    seen = {start}
    stack = [start]
    while stack:
        state = stack.pop()
        for nxt in successors(state):
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return seen


# -- composition ---------------------------------------------------------


def compose(a: WeightedFst, b: WeightedFst) -> WeightedFst:
    """Compose two transducers, matching a's output tape against b's input tape.

    Epsilon moves go through the standard three-state filter so that each
    interleaving of output-epsilons (from a) and input-epsilons (from b)
    contributes exactly one path. The result is connected, its arcs sorted.
    """
    if a.osymbols != b.isymbols:
        raise ConfigurationError(
            "composition requires a.osymbols == b.isymbols "
            f"({len(a.osymbols)} vs {len(b.isymbols)} symbols)"
        )
    out = WeightedFst(a.isymbols.copy(), b.osymbols.copy())
    if a.is_empty() or b.is_empty():
        return out

    state_ids: dict[tuple[int, int, int], int] = {}

    def state_of(key: tuple[int, int, int]) -> int:
        if key not in state_ids:
            state_ids[key] = out.add_state()
            queue.append(key)
        return state_ids[key]

    queue: list[tuple[int, int, int]] = []
    start_key = (a.start, b.start, 0)
    out.set_start(state_of(start_key))

    while queue:
        key = queue.pop()
        s1, s2, flt = key
        src = state_ids[key]

        by_ilabel: dict[int, list[Arc]] = {}
        for arc2 in b.arcs(s2):
            by_ilabel.setdefault(arc2.ilabel, []).append(arc2)

        for arc1 in a.arcs(s1):
            if arc1.olabel != EPSILON:
                for arc2 in by_ilabel.get(arc1.olabel, ()):
                    dst = state_of((arc1.nextstate, arc2.nextstate, 0))
                    out.add_arc(src, arc1.ilabel, arc2.olabel, semiring.times(arc1.weight, arc2.weight), dst)
            else:
                if flt != 2:  # a moves alone on its output-epsilon arc
                    dst = state_of((arc1.nextstate, s2, 1))
                    out.add_arc(src, arc1.ilabel, EPSILON, arc1.weight, dst)
                if flt == 0:  # both sides move on an epsilon pair
                    for arc2 in by_ilabel.get(EPSILON, ()):
                        dst = state_of((arc1.nextstate, arc2.nextstate, 0))
                        out.add_arc(src, arc1.ilabel, arc2.olabel, semiring.times(arc1.weight, arc2.weight), dst)
        if flt != 1:  # b moves alone on its input-epsilon arc
            for arc2 in by_ilabel.get(EPSILON, ()):
                dst = state_of((s1, arc2.nextstate, 2))
                out.add_arc(src, EPSILON, arc2.olabel, arc2.weight, dst)

        fw = semiring.times(a.final_weight(s1), b.final_weight(s2))
        if fw != semiring.ZERO:
            out.set_final(src, fw)

    out = connect(out)
    out.sort_arcs()
    return out


# -- determinization -----------------------------------------------------


def determinize(a: WeightedFst, state_budget: int | None = None) -> WeightedFst:
    """Weighted subset determinization over encoded (ilabel, olabel) pairs.

    The result has at most one arc per (state, ilabel, olabel); residual
    weights are pushed forward so the weighted language is preserved.
    Arcs whose encoded pair is (0, 0) are kept as regular labels, so
    machines with epsilon cycles of that kind (n-gram backoff loops) stay
    representable. Paths of weight +inf (the semiring zero) are dropped.
    Each state's arcs are added in (ilabel, olabel) order. Raises
    ResourceError if the construction exceeds the state budget (default
    10x the input size, with a small floor).
    """
    out = WeightedFst(a.isymbols.copy(), a.osymbols.copy())
    if a.is_empty():
        return out
    budget = state_budget if state_budget is not None else max(10 * a.num_states(), _DET_BUDGET_FLOOR)

    Subset = tuple[tuple[int, float], ...]
    subset_ids: dict[Subset, int] = {}
    queue: list[Subset] = []

    def subset_state(subset: Subset) -> int:
        if subset not in subset_ids:
            if len(subset_ids) >= budget:
                raise ResourceError(
                    f"determinization exceeded its state budget of {budget} states"
                )
            subset_ids[subset] = out.add_state()
            queue.append(subset)
        return subset_ids[subset]

    initial: Subset = ((a.start, semiring.ONE),)
    out.set_start(subset_state(initial))

    while queue:
        subset = queue.pop()
        src = subset_ids[subset]

        # Gather per encoded label the best extension weight into each state.
        by_label: dict[tuple[int, int], dict[int, float]] = {}
        final = semiring.ZERO
        for state, residual in subset:
            final = semiring.plus(final, semiring.times(residual, a.final_weight(state)))
            for arc in a.arcs(state):
                w = semiring.times(residual, arc.weight)
                if w == semiring.ZERO:
                    continue  # a subset of +inf residuals would hold NaN and never match itself
                targets = by_label.setdefault((arc.ilabel, arc.olabel), {})
                prev = targets.get(arc.nextstate, semiring.ZERO)
                targets[arc.nextstate] = semiring.plus(prev, w)
        if final != semiring.ZERO:
            out.set_final(src, final)

        for label in sorted(by_label):
            targets = by_label[label]
            w_min = min(targets.values())
            next_subset = tuple(sorted((state, w - w_min) for state, w in targets.items()))
            dst = subset_state(next_subset)
            out.add_arc(src, label[0], label[1], w_min, dst)
    return out


def is_deterministic(a: WeightedFst) -> bool:
    """True when no state has two arcs sharing an encoded (ilabel, olabel) pair."""
    for state in a.states():
        seen = set()
        for arc in a.arcs(state):
            label = (arc.ilabel, arc.olabel)
            if label in seen:
                return False
            seen.add(label)
    return True


# -- minimization --------------------------------------------------------


def minimize(a: WeightedFst) -> WeightedFst:
    """Merge equivalent states of a deterministic machine.

    Equivalence is computed by partition refinement on (final weight,
    outgoing arc) signatures after trimming, so two states merge exactly
    when their weighted suffix languages are identical.
    """
    if not is_deterministic(a):
        raise PreconditionError("minimize requires a deterministic input FST")
    trimmed = connect(a)
    if trimmed.is_empty():
        return trimmed

    classes = [0] * trimmed.num_states()
    keys = {}
    for state in trimmed.states():
        key = ("F", trimmed.final_weight(state))
        classes[state] = keys.setdefault(key, len(keys))

    while True:
        keys = {}
        new_classes = [0] * trimmed.num_states()
        for state in trimmed.states():
            signature = (
                classes[state],
                tuple(
                    sorted(
                        (arc.ilabel, arc.olabel, arc.weight, classes[arc.nextstate])
                        for arc in trimmed.arcs(state)
                    )
                ),
            )
            new_classes[state] = keys.setdefault(signature, len(keys))
        if new_classes == classes:
            break
        classes = new_classes

    out = WeightedFst(trimmed.isymbols.copy(), trimmed.osymbols.copy())
    representative: dict[int, int] = {}
    for state in trimmed.states():  # first state of each class represents it
        representative.setdefault(classes[state], state)
    start_class = classes[trimmed.start]
    ordered = [start_class] + [
        cls for cls in sorted(representative, key=lambda c: representative[c]) if cls != start_class
    ]
    class_state = {cls: out.add_state() for cls in ordered}
    out.set_start(class_state[start_class])
    for cls, rep in representative.items():
        src = class_state[cls]
        for arc in trimmed.arcs(rep):
            out.add_arc(src, arc.ilabel, arc.olabel, arc.weight, class_state[classes[arc.nextstate]])
        fw = trimmed.final_weight(rep)
        if fw != semiring.ZERO:
            out.set_final(src, fw)
    out.sort_arcs()
    return out


# -- shortest paths ------------------------------------------------------


@dataclass(frozen=True)
class FstPath:
    """An accepting path: epsilon-stripped label sequences plus total weight."""

    ilabels: tuple[int, ...]
    olabels: tuple[int, ...]
    weight: float


def shortest_path(a: WeightedFst, n: int = 1, *, max_expansions: int = 200_000) -> list[FstPath]:
    """The n cheapest accepting paths, in nondecreasing weight order.

    Ties are broken by the lexicographic order of the (epsilon-stripped)
    input-label sequence. Returns fewer than n paths when the machine has
    fewer; an empty list when there is no accepting path.
    """
    if n < 1:
        raise ConfigurationError("n must be >= 1")
    if a.is_empty():
        return []
    results: list[FstPath] = []
    counter = 0
    # Heap entries: (weight, ilabels, olabels, tiebreak, state); state None marks
    # a completed path (final weight already folded in).
    heap: list[tuple[float, tuple[int, ...], tuple[int, ...], int, int | None]] = [
        (semiring.ONE, (), (), counter, a.start)
    ]
    expansions = 0
    while heap and len(results) < n:
        weight, ilabels, olabels, _, state = heapq.heappop(heap)
        if state is None:
            results.append(FstPath(ilabels, olabels, weight))
            continue
        expansions += 1
        if expansions > max_expansions:
            raise ResourceError(f"shortest_path exceeded {max_expansions} expansions")
        fw = a.final_weight(state)
        if fw != semiring.ZERO:
            counter += 1
            heapq.heappush(heap, (semiring.times(weight, fw), ilabels, olabels, counter, None))
        for arc in a.arcs(state):
            w = semiring.times(weight, arc.weight)
            if w == semiring.ZERO:
                continue
            counter += 1
            nil = ilabels + (arc.ilabel,) if arc.ilabel != EPSILON else ilabels
            nol = olabels + (arc.olabel,) if arc.olabel != EPSILON else olabels
            heapq.heappush(heap, (w, nil, nol, counter, arc.nextstate))
    return results


# -- relabeling ----------------------------------------------------------


def relabel_ilabels(
    fst: WeightedFst,
    mapping: dict[int, int],
    isymbols: SymbolTable | None = None,
) -> WeightedFst:
    """Copy with input labels rewritten through `mapping` (identity elsewhere)."""
    out = WeightedFst(isymbols if isymbols is not None else fst.isymbols.copy(), fst.osymbols.copy())
    out.add_states(fst.num_states())
    if fst.start != NO_STATE:
        out.set_start(fst.start)
    for state in fst.states():
        for arc in fst.arcs(state):
            out.add_arc(state, mapping.get(arc.ilabel, arc.ilabel), arc.olabel, arc.weight, arc.nextstate)
    for state, weight in fst.finals.items():
        out.set_final(state, weight)
    out.sort_arcs()
    return out
