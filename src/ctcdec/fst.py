"""Weighted finite-state transducers over the tropical semiring (min, +).

Just enough algebra to build and search CTC decoding graphs: construction,
composition with an epsilon filter, determinization of (ilabel,
olabel)-encoded labels, minimization and connection. Arc label 0 is
epsilon on both tapes.

A machine is a value, built once from columns by its one constructor,
which checks them. It is its arrays, as OpenFst's `ConstFst` is: the
arcs as read-only CSR columns grouped by source state, and the final
weights as one array with a weight per state; +inf there means "not
final", so a final weight of +inf is never written. Beside them it
caches the views the search reads (`closure` and `emitting`). Every
algorithm here reads rows from the arrays and emits new columns and a
new final array, which the constructor turns into the result; no pass
makes an object per arc.

Every algorithm is array code. `compose` and `determinize` expand their
states a bounded batch at a time, giving each new one a dense id from a
dict, and then number them in the order a stack would discover them:
`compose` keys a state by its code, `determinize` a subset by the bytes
of its states and residuals. `connect` walks forward over the CSR arrays
and backward over each arc's source grouped by its destination. A sort
of arcs on several keys folds its integer keys into one (`_lexsort`).

The text format is read and written a block of lines at a time, with
no Python object per line or field that outlives its block.
`from_text` splits `_READ_BLOCK` characters into lines at once, and
`read` reads `_READ_BLOCK` bytes of its file at once. A block of arc
lines only, as is every block of a written machine but its last, is
parsed in one `np.loadtxt` call; any other block has the fields of each
line counted, and its arc and final lines parsed apart. Each block's
arcs are copied into columns that grow in place, to the size the text
read so far projects. `to_text` and `write` format `_TEXT_CHUNK` arcs at
once, each distinct value of a column once, and `write` replaces its
file whole.
"""

from __future__ import annotations

import warnings
from collections import deque
from functools import cached_property
from pathlib import Path
from typing import Iterator, NamedTuple

import numpy as np

from .errors import ConfigurationError, ParseError, PreconditionError, ResourceError, read_line_blocks, write_atomic
from .symbols import EPSILON, SymbolTable

NO_STATE = -1
_NEG_INF = float("-inf")

# Budget floor so that determinizing tiny machines never trips the guard;
# the 10x term is what scales on real graphs.
_DET_BUDGET_FLOOR = 1000

# The text format's two line shapes, as `np.loadtxt` rows.
_ARC_ROW = np.dtype([("src", np.int64), ("dst", np.int64), ("il", np.int64), ("ol", np.int64), ("w", np.float64)])
_FINAL_ROW = np.dtype([("state", np.int64), ("w", np.float64)])
_READ_BLOCK = 1 << 18  # characters (or file bytes) parsed into lines at once, which bounds the line objects held
_TEXT_CHUNK = 1 << 14  # arcs `to_text` and `write` format at once, which bounds the byte rows they hold
_EXPAND_KEYS = 256  # states `compose` and `determinize` expand at once, which bounds the arc rows they hold


class WeightedFst:
    """A WFST with dense integer states, built once from columns.

    State s owns arcs `offsets[s]:offsets[s + 1]` of the read-only
    columns `ilabel`, `olabel`, `weight` and `nextstate`, and `final`
    holds a float64 weight per state. As in OpenFst, a state is final
    exactly when its weight is not +inf, the semiring zero. Weights live
    in the tropical semiring, where min is the sum and + the product; an
    arc weight may be +inf but no weight may be NaN or -inf. Symbol tables
    are carried along so composition can verify tape compatibility; id 0
    must be epsilon in both.

    The constructor takes the machine whole: its state count, its start
    state (`NO_STATE` for none), its final weights and its arcs as columns
    (src, ilabel, olabel, weight, nextstate), which it groups by source
    state stably. It alone checks them, and every algorithm here builds
    its result through it. Given only the tables, it is the empty machine.
    `max_ilabel`, `closure` and `emitting` are computed on first use and
    kept, so every decoder on one machine shares them. `sort_arcs` is the
    one change a machine takes: it reorders each state's arcs, leaves the
    language alone and rebuilds the machine, cached views included.
    """

    def __init__(
        self,
        isymbols: SymbolTable | None = None,
        osymbols: SymbolTable | None = None,
        num_states: int = 0,
        start: int = NO_STATE,
        final=(),
        src=(),
        ilabel=(),
        olabel=(),
        weight=(),
        nextstate=(),
    ):
        self.isymbols = isymbols if isymbols is not None else SymbolTable.with_epsilon()
        self.osymbols = osymbols if osymbols is not None else SymbolTable.with_epsilon()
        final = np.array(final, dtype=np.float64)
        src, ilabel, olabel, nextstate = (np.asarray(c, dtype=np.int64) for c in (src, ilabel, olabel, nextstate))
        weight = np.asarray(weight, dtype=np.float64)
        if len(final) != num_states:
            raise ConfigurationError(f"{len(final)} final weights for {num_states} states")
        if len({len(src), len(ilabel), len(olabel), len(weight), len(nextstate)}) != 1:
            raise ConfigurationError("arc columns differ in length")
        # Each check reduces a column to one number; only a failing one looks for the row to cite.
        if not (start == NO_STATE or 0 <= start < num_states):
            raise ConfigurationError(f"state {start} does not exist")
        for ends in (src, nextstate):
            if len(ends) and (ends.min() < 0 or ends.max() >= num_states):
                raise ConfigurationError(f"state {ends[np.argmax((ends < 0) | (ends >= num_states))]} does not exist")
        if min(ilabel.min(initial=0), olabel.min(initial=0)) < 0:
            raise ConfigurationError("arc labels must be >= 0")
        for name, values in (("arc", weight), ("final", final)):
            if not values.min(initial=np.inf) > _NEG_INF:  # NaN or -inf
                bad = float(values[np.argmax(~(values > _NEG_INF))])
                raise ConfigurationError(f"{name} weight {bad!r} is NaN or -inf")
        columns = [ilabel, olabel, weight, nextstate]
        if np.any(src[1:] < src[:-1]):
            order = np.argsort(src, kind="stable")
            columns = [c[order] for c in columns]
        self.offsets = _offsets(src, num_states)
        self.ilabel, self.olabel, self.weight, self.nextstate = map(np.ascontiguousarray, columns)
        for array in (final, self.offsets, self.ilabel, self.olabel, self.weight, self.nextstate):
            array.flags.writeable = False
        self.start = start
        self.final = final

    # -- inspection ------------------------------------------------------

    def num_states(self) -> int:
        return len(self.final)

    def num_arcs(self) -> int:
        return len(self.ilabel)

    def is_empty(self) -> bool:
        return self.start == NO_STATE

    def sources(self) -> np.ndarray:
        """Each arc's source state."""
        return np.repeat(np.arange(self.num_states(), dtype=np.int64), np.diff(self.offsets))

    def columns(self) -> tuple[np.ndarray, ...]:
        """(src, ilabel, olabel, weight, nextstate), one entry per arc."""
        return self.sources(), self.ilabel, self.olabel, self.weight, self.nextstate

    def sorted_order(self) -> np.ndarray:
        """Arc indices by (source, ilabel, olabel, nextstate, weight), stably."""
        return _arc_order(self.sources(), self.ilabel, self.olabel, self.nextstate, self.weight)

    def sort_arcs(self) -> None:
        """Order each state's arcs by (ilabel, olabel, nextstate, weight).

        The machine is rebuilt through the constructor, so the views cached
        from the old arc order are dropped; a decoder already built on it
        keeps the ones it was built with."""
        order = self.sorted_order()
        rebuilt = type(self)(self.isymbols, self.osymbols, self.num_states(), self.start, self.final,
                             *(c[order] for c in self.columns()))
        self.__dict__ = vars(rebuilt)

    # -- search views ----------------------------------------------------

    @cached_property
    def max_ilabel(self) -> int:
        return int(self.ilabel.max(initial=0))

    @cached_property
    def closure(self) -> tuple[np.ndarray, np.ndarray]:
        """Each state's label-0 paths as `(offsets, paths)`: state s owns the
        rows `offsets[s]:offsets[s + 1]` of `paths`, one row of arc ids per
        path padded with -1, shorter paths first and then in arc order. Arcs
        of weight +inf lie on no finite path and are left out. A label-0
        cycle is refused, and so are more paths than states times label-0
        arcs."""
        n = self.num_states()
        eps = np.flatnonzero((self.ilabel == 0) & (self.weight < np.inf))
        src = self.sources()[eps]
        by_state = _offsets(src, n)  # each state's label-0 arcs, as a range of `eps`
        found = [(src, eps[:, None])]  # round k: the paths of k hops, as (source state, arc ids)
        total, bound = len(eps), n * len(eps)
        while True:
            src, rows = found[-1]
            end = self.nextstate[rows[:, -1]]
            first, count = by_state[end], by_state[end + 1] - by_state[end]
            if not count.any():
                break
            if rows.shape[1] == len(eps):  # a path of more hops than there are label-0 arcs repeats one
                raise ConfigurationError("the graph has a label-0 cycle")
            total += int(count.sum())
            if total > bound:
                raise ConfigurationError(f"the graph has more than {bound} label-0 paths (states x label-0 arcs)")
            parent, at = _spans(first, count)
            found.append((src[parent], np.column_stack((rows[parent], eps[at]))))
        src = np.concatenate([src for src, _ in found])
        paths = np.concatenate([np.pad(rows, ((0, 0), (0, len(found) - rows.shape[1])), constant_values=-1)
                                for _, rows in found])
        offsets, paths = _offsets(src, n), paths[np.argsort(src, kind="stable")]
        offsets.flags.writeable = paths.flags.writeable = False
        return offsets, paths

    @cached_property
    def emitting(self) -> "EmittingArcs":
        """The arcs of label > 0 and finite weight, in arc order within a
        state, with the states on a label-0 path as `closure` holds them."""
        arc = np.flatnonzero((self.ilabel != 0) & (self.weight < np.inf))
        by_state, paths = self.closure
        on_label0 = np.diff(by_state) > 0
        on_label0[self.nextstate[paths[:, 0]]] = True  # every label-0 arc is a path of one hop
        view = EmittingArcs(_offsets(self.sources()[arc], self.num_states()),
                            np.stack((self.nextstate[arc], self.ilabel[arc] - 1, self.olabel[arc])),
                            self.weight[arc], on_label0)
        for array in view:
            array.flags.writeable = False
        return view

    # -- text format -----------------------------------------------------

    def to_text(self) -> str:
        """One `src dst ilabel olabel weight` line per arc, then `state weight` finals.

        Arcs are listed by source state and then in `sort_arcs` order.
        State 0 is the start state by convention; every construction op in
        this module numbers its result that way.
        """
        return "".join(block.decode("ascii") for block in self._text_blocks())

    def write(self, path: str | Path) -> None:
        """Write `to_text` a block at a time; the file at `path` is replaced whole, or not at all."""
        write_atomic(path, self._text_blocks())

    def _text_blocks(self) -> Iterator[bytes]:
        """The text format as ASCII, `_TEXT_CHUNK` arc lines at a time and then the final lines."""
        order = self.sorted_order()
        columns = (self.sources(), self.nextstate, self.ilabel, self.olabel, self.weight)
        for lo in range(0, len(order), _TEXT_CHUNK):
            at = order[lo : lo + _TEXT_CHUNK]
            src, dst, il, ol, w = (c[at] for c in columns)
            # + 0.0 prints -0.0 as 0.000000
            yield _format_lines((src, dst, il, ol, w + 0.0), (b"%d",) * 4 + (b"%.6f",))
        state = np.flatnonzero(self.final < np.inf)
        if len(state):
            yield _format_lines((state, self.final[state] + 0.0), (b"%d", b"%.6f"))

    @classmethod
    def from_text(
        cls,
        text: str,
        isymbols: SymbolTable | None = None,
        osymbols: SymbolTable | None = None,
        source: str = "<fst>",
    ) -> "WeightedFst":
        """Parse the text format. State 0 is the start state when any state exists.

        A line is an arc (5 fields) or a final weight (2 fields). State ids
        and labels are ASCII integers >= 0; labels must be in the given
        symbol tables. A weight may be +inf (the semiring zero) but not NaN
        or -inf, and a state listed final twice keeps the smaller weight. A
        final weight of +inf leaves its state not final.
        `#` is an ordinary token, not a comment. Errors cite the first
        failing line.

        The text is split into lines `_READ_BLOCK` characters at a time,
        each block cut after a `\\n`, and each block's arcs are copied into
        columns that grow in place.
        """
        return cls._from_blocks(_line_blocks(text, _READ_BLOCK), len(text), isymbols, osymbols, source)

    @classmethod
    def read(
        cls,
        path: str | Path,
        isymbols: SymbolTable | None = None,
        osymbols: SymbolTable | None = None,
    ) -> "WeightedFst":
        """`from_text` of a UTF-8 file, read and parsed `_READ_BLOCK` bytes at a time."""
        length = Path(path).stat().st_size
        return cls._from_blocks(read_line_blocks(path, _READ_BLOCK), length, isymbols, osymbols, str(path))

    @classmethod
    def _from_blocks(cls, blocks: Iterator[str], length: int, isymbols, osymbols, source: str) -> "WeightedFst":
        """Parse the text format from `blocks`, pieces of a text of about `length`
        characters that each end after a `\\n`. When a block's arcs do not fit,
        the columns grow to the arcs so far times `length` over the text so far."""
        names = _ARC_ROW.names  # src, dst, il, ol, w
        # No view of a column exists until the last block is in, so they resize in place.
        columns = [np.empty(0, _ARC_ROW[name]) for name in names]
        labels = [None if table is None else table.ids() for table in (isymbols, osymbols)]
        finals = []  # per block: the final rows
        # A line names at most two states, so no file of n lines numbers its states
        # densely past 2n. That bound only grows, so only a row whose state id is
        # past it for the lines read so far can break it; `held` keeps each block's
        # such rows as (rank of the check, line indices, state ids).
        held: list[tuple[int, np.ndarray, np.ndarray]] = []
        errors: list[tuple[int, int, str]] = []  # (line index, rank of the check, message)
        n_arcs = n_lines = seen = 0
        for block in blocks:
            lines = block.splitlines()
            seen += len(block)
            if not errors:  # past a failing block only the line count matters
                arcs, arc_line, fin, final_line = _read_lines(lines, n_lines, *labels, errors)
                end = n_arcs + len(arcs)
                if end > len(columns[0]):
                    for c in columns:
                        c.resize(max(end, end * length // seen), refcheck=False)
                for c, name in zip(columns, names):
                    c[n_arcs:end] = arcs[name]
                n_arcs = end
                finals.append(fin)
                low = 2 * (n_lines + len(lines))
                rows = ((4, arc_line, arcs["src"], arcs["dst"]), (10, final_line, fin["state"], fin["state"]))
                for rank, at, a, b in rows:  # a final row names one state, so it stands as both ends
                    keep = (a >= low) | (b >= low)
                    if keep.any():
                        held.append((rank, at[keep], np.maximum(a[keep], b[keep])))
            n_lines += len(lines)
        for c in columns:
            c.resize(n_arcs, refcheck=False)
        src, dst, il, ol, w = columns
        fin = np.concatenate(finals) if finals else np.zeros(0, _FINAL_ROW)
        state, fw = fin["state"], fin["w"]
        too_large = f"is too large for a file of {n_lines} lines"
        for rank, at, ids in held:
            _fail(errors, at, ids >= 2 * n_lines, rank, lambda r: f"state id {ids[r]} {too_large}")
        if errors:
            at, _, message = min(errors)
            raise ParseError(message, source=source, line=at + 1)

        n = 1 + max((int(c.max()) for c in (src, dst, state) if len(c)), default=-1)
        final = np.full(n, np.inf)
        np.minimum.at(final, state, fw)
        return cls(isymbols, osymbols, n, 0 if n else NO_STATE, final, src, il, ol, w, dst)


def _format_lines(columns, formats) -> bytes:
    """One line per row of `columns`, its fields formatted by `formats` and joined by spaces.

    Each distinct value of a column is formatted once. The fields become
    rows of NUL-padded bytes, gathered side by side with the separators,
    and the NULs are dropped.
    """
    n = len(columns[0])
    parts = []
    for column, fmt in zip(columns, formats):
        values, inverse = np.unique(column, return_inverse=True)
        field = np.array([fmt % v for v in values.tolist()])[inverse]
        parts += [field.view(np.uint8).reshape(n, field.itemsize), np.full((n, 1), ord(" "), np.uint8)]
    parts[-1] = np.full((n, 1), ord("\n"), np.uint8)
    rows = np.concatenate(parts, axis=1)
    return rows.tobytes().replace(b"\0", b"")


def _line_blocks(text: str, size: int) -> Iterator[str]:
    """`text` in pieces of at least `size` characters, each cut just after a `\\n`
    (the last may end anywhere), so `str.splitlines` finds the same lines in
    the pieces as in the whole."""
    lo = 0
    while lo < len(text):
        hi = text.find("\n", lo + size - 1) + 1 or len(text)
        yield text[lo:hi]
        lo = hi


def _read_lines(lines: list[str], line0: int, ilabels, olabels, errors: list) -> tuple[np.ndarray, ...]:
    """Parse the FST text `lines`, the first of which is line index `line0`, into
    arc and final rows beside each row's line index.

    An arc-only block is parsed in one `np.loadtxt` call: numpy skips blank
    lines and splits on the whitespace `str.split` does, so a row per line means
    every line held 5 fields. Any other block has the fields of each line
    counted, and its arc and final lines parsed apart.

    Each check appends its first failing line to `errors` as (line index, rank,
    message). The rank fixes which message a line that fails two checks cites,
    whichever block runs it; `from_text` runs the state-id bound, ranks 4 and 10,
    once it has counted every line. Rows after a line that does not convert are
    not read, and each row's line index is returned only for the rows read.
    """
    try:
        arcs = _loadtxt(lines, _ARC_ROW, None)
    except (ValueError, Warning):
        arcs = None
    if arcs is not None and len(arcs) == len(lines):  # a row per line: every line is an arc
        arc_at, final_at = np.arange(len(lines)), np.zeros(0, np.int64)
        finals, bad_arc, bad_final = np.zeros(0, _FINAL_ROW), None, None
    else:
        fields = np.fromiter(map(len, map(str.split, lines)), np.int64, len(lines))
        arc_at, final_at = np.flatnonzero(fields == 5), np.flatnonzero(fields == 2)
        _fail(errors, np.arange(line0, line0 + len(lines)), ~np.isin(fields, (0, 2, 5)), 0,
              lambda r: "expected arc or final-state line")
        arcs, bad_arc = load_rows(lines, arc_at, _ARC_ROW)
        finals, bad_final = load_rows(lines, final_at, _FINAL_ROW)
    arc_line, final_line = arc_at[: len(arcs)] + line0, final_at[: len(finals)] + line0
    for rank, at in ((1, bad_arc), (2, bad_final)):
        if at is not None:
            message = f"cannot read {lines[at].strip()!r}: ids and labels must be integers and weights numbers"
            errors.append((line0 + at, rank, message))
    src, dst, il, ol, w = (arcs[name] for name in _ARC_ROW.names)
    state, fw = finals["state"], finals["w"]
    _fail(errors, arc_line, np.minimum(src, dst) < 0, 3, lambda r: f"state ids must be >= 0, got {src[r]} and {dst[r]}")
    _fail(errors, arc_line, np.minimum(il, ol) < 0, 5, lambda r: f"labels must be >= 0, got {il[r]} and {ol[r]}")
    if ilabels is not None:
        _fail(errors, arc_line, ~np.isin(il, ilabels), 6, lambda r: f"input label {il[r]} not in the symbol table")
    if olabels is not None:
        _fail(errors, arc_line, ~np.isin(ol, olabels), 7, lambda r: f"output label {ol[r]} not in the symbol table")
    _fail(errors, arc_line, ~(w > _NEG_INF), 8, lambda r: f"arc weight {lines[arc_at[r]].split()[4]!r} is NaN or -inf")
    _fail(errors, final_line, state < 0, 9, lambda r: f"state id must be >= 0, got {state[r]}")
    _fail(errors, final_line, ~(fw > _NEG_INF), 11,
          lambda r: f"final weight {lines[final_at[r]].split()[1]!r} is NaN or -inf")
    return arcs, arc_line, finals, final_line


def _fail(errors: list, at: np.ndarray, bad: np.ndarray, rank: int, message) -> None:
    """Append (`at[r]`, `rank`, `message(r)`) for the first row r that is `bad`, if any."""
    if bad.any():
        row = int(np.argmax(bad))
        errors.append((int(at[row]), rank, message(row)))


def _loadtxt(rows: list[str], dtype: np.dtype, width: int | None) -> np.ndarray:
    if not rows:
        return np.zeros(0 if width is None else (0, width), dtype)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a row numpy only warns about is still a bad row
        array = np.loadtxt(rows, dtype=dtype, comments=None, ndmin=1 if width is None else 2)
    if width is not None and array.shape[1] != width:
        raise ValueError(f"rows hold {array.shape[1]} values, not {width}")
    return array


def load_rows(lines: list[str], at, dtype: np.dtype, width: int | None = None) -> tuple[np.ndarray, int | None]:
    """Parse the non-blank `lines[i]`, i in `at` (increasing), in one `np.loadtxt` call into
    records of a structured `dtype` or `width` columns. If a row does not convert, return
    the rows before it and its index in `lines`, found by bisecting with the same call."""
    rows = [lines[i] for i in np.asarray(at, dtype=np.int64).tolist()]
    try:
        return _loadtxt(rows, dtype, width), None
    except (ValueError, Warning):
        pass
    lo, hi = 0, len(rows)  # rows[:lo] convert and rows[lo:hi] holds the first that does not
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            _loadtxt(rows[lo:mid], dtype, width)
        except (ValueError, Warning):
            hi = mid
        else:
            lo = mid
    return _loadtxt(rows[:lo], dtype, width), int(at[lo])


class EmittingArcs(NamedTuple):
    """The arcs a frame's search follows, as `WeightedFst.emitting` builds them.

    State s owns columns `offsets[s]:offsets[s + 1]` of `arcs`, whose rows
    are (nextstate, acoustic column = ilabel - 1, olabel), and of `weight`.
    `on_label0` marks the states that a label-0 path leaves or reaches.
    """

    offsets: np.ndarray
    arcs: np.ndarray
    weight: np.ndarray
    on_label0: np.ndarray


def _arc_order(*keys: np.ndarray) -> np.ndarray:
    """Indices of the rows of the columns `keys` in lexicographic order, stably."""
    tied = np.ones(max(len(keys[0]) - 1, 0), dtype=bool)  # neighbours equal on the keys so far
    for key in keys:  # skip the sort when the rows are in order already
        if np.any(tied & ~(key[:-1] <= key[1:])):
            return _lexsort(keys)
        tied &= key[:-1] == key[1:]
    return np.arange(len(keys[0]))


def _lexsort(keys) -> np.ndarray:
    """`np.lexsort(keys[::-1])`: indices of the rows of the columns `keys`, most
    significant first, in lexicographic order, stably.

    Adjacent integer keys >= 0 are folded into one int64 key while the product
    of their spans (largest value + 1) stays below 2**62, which keeps their
    order. The first key is then sorted alone, and the rest are read only
    when it has ties.
    """
    folded, span = [], 0  # the keys so far, folded; the product of the spans in the last, 0 if no key may join
    for key in keys:
        size = int(key.max()) + 1 if len(key) and key.dtype.kind == "i" and key.min() >= 0 else 0
        if size and span and span * size < 1 << 62:
            folded[-1] = np.multiply(folded[-1], size, dtype=np.int64)
            folded[-1] += key
            span *= size
        else:
            folded.append(key)
            span = size if size < 1 << 62 else 0
    first = folded[0]
    order = np.argsort(first, kind="stable")
    if len(folded) > 1:
        ranked = first[order]
        if not np.all(ranked[1:] > ranked[:-1]):  # ties, or NaNs, which np.lexsort also ties
            order = np.lexsort(folded[::-1])
    return order


def _offsets(group: np.ndarray, n: int) -> np.ndarray:
    """CSR offsets of items grouped by `group`, a state in range(n) each."""
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(group, minlength=n), out=offsets[1:])
    return offsets


# -- connect -------------------------------------------------------------


def connect(fst: WeightedFst) -> WeightedFst:
    """Keep only states on some start-to-final path.

    The start state is renumbered to 0 (the text format's convention);
    other surviving states keep their relative order.
    """
    isymbols, osymbols = fst.isymbols.copy(), fst.osymbols.copy()
    if fst.is_empty():
        return WeightedFst(isymbols, osymbols)
    n = fst.num_states()
    src, il, ol, w, dst = fst.columns()
    accessible = _reachable(fst.offsets, dst, [fst.start])
    # backwards from the accessible finals, over each arc's source grouped by its destination
    ends = np.flatnonzero(accessible & (fst.final < np.inf))
    keep = accessible & _reachable(_offsets(dst, n), src[np.argsort(dst, kind="stable")], ends)
    if not keep[fst.start]:
        return WeightedFst(isymbols, osymbols)
    kept = np.flatnonzero(keep)
    remap = np.full(n, NO_STATE, dtype=np.int64)
    remap[kept[kept != fst.start]] = np.arange(1, len(kept))
    remap[fst.start] = 0
    arc = keep[src] & keep[dst]
    final = np.empty(len(kept))
    final[remap[kept]] = fst.final[kept]
    return WeightedFst(
        isymbols, osymbols, len(kept), 0, final, remap[src[arc]], il[arc], ol[arc], w[arc], remap[dst[arc]]
    )


def _reachable(offsets: np.ndarray, nextstate: np.ndarray, starts) -> np.ndarray:
    """Mask of the states reached from `starts` over CSR arcs, a frontier at a time."""
    seen = np.zeros(len(offsets) - 1, dtype=bool)
    frontier = np.unique(np.asarray(starts, dtype=np.int64))
    seen[frontier] = True
    while len(frontier):
        first = offsets[frontier]
        nxt = nextstate[_spans(first, offsets[frontier + 1] - first)[1]]
        frontier = np.unique(nxt[~seen[nxt]])
        seen[frontier] = True
    return seen


def _spans(first: np.ndarray, count: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each i, `count[i]` copies of i beside the indices `first[i]:first[i] + count[i]`,
    concatenated over i."""
    owner = np.arange(len(first)).repeat(count)
    index = (first - count.cumsum() + count).repeat(count)
    return owner, index + np.arange(len(index))


# -- composition ---------------------------------------------------------


def compose(a: WeightedFst, b: WeightedFst) -> WeightedFst:
    """Compose two transducers, matching a's output tape against b's input tape.

    Epsilon moves go through the standard three-state filter so that each
    interleaving of output-epsilons (from a) and input-epsilons (from b)
    contributes exactly one path. States are numbered in the order a stack
    discovers them; the result is connected, its arcs sorted.

    This is array code with no step per arc. Composed states, keys (a
    state, b state, filter state), are expanded `_EXPAND_KEYS` at a time
    in the order they are found, and each key's arcs are put in the order
    a scalar loop would emit them: a's arcs in order, then b's input
    epsilons. A dict maps each key to a dense id; the keys an expansion
    finds first get the next ids in ascending order. A second pass
    replays that loop's stack over each key's destinations, with a few
    array operations per state, to number the states as the loop would.
    The keys that reach no final key are then dropped, and the arcs are
    sorted once into their final order.
    """
    if a.osymbols != b.isymbols:
        raise ConfigurationError(
            "composition requires a.osymbols == b.isymbols "
            f"({len(a.osymbols)} vs {len(b.isymbols)} symbols)"
        )
    if a.is_empty() or b.is_empty():
        return WeightedFst(a.isymbols.copy(), b.osymbols.copy())
    n2 = b.num_states()
    # b's arcs stably sorted by (state, ilabel), so the arcs of one pair are
    # a range of `b_order`, in arc order.
    width = 1 + max(b.max_ilabel, int(a.olabel.max(initial=0)))
    b_pair = b.sources() * width + b.ilabel
    b_order = np.argsort(b_pair, kind="stable")
    b_pair = b_pair[b_order]

    def b_arcs(s2: np.ndarray, ilabel) -> tuple[np.ndarray, np.ndarray]:
        """The b arcs matching each query (s2, ilabel): the query's index, and the arc's position in `b_order`."""
        pair = s2 * width + ilabel
        first = np.searchsorted(b_pair, pair, "left")
        count = np.searchsorted(b_pair, pair, "right") - first
        return _spans(first, count)

    # A key's code is (s1 * n2 + s2) * 3 + filter. Ids go in order of
    # discovery, which is also the order keys are expanded in.
    codes = [(a.start * n2 + b.start) * 3]
    ids = {codes[0]: 0}
    counts, il, ol, w, dst = [], [], [], [], []  # per expansion: arcs per key, then the arcs' columns
    after_a = a.num_arcs() + 1  # a b-epsilon-alone arc sorts after every a arc
    done = 0
    while done < len(codes):
        code = np.array(codes[done : done + _EXPAND_KEYS], dtype=np.int64)
        done += len(code)
        s1, s2, flt = code // 3 // n2, code // 3 % n2, code % 3
        first = a.offsets[s1]
        a_count = a.offsets[s1 + 1] - first
        a_key, a_arc = _spans(first, a_count)
        a_eps = a.olabel[a_arc] == EPSILON
        # a moves alone on an output epsilon, to filter 1
        alone = a_eps & (flt[a_key] != 2)
        key1, arc1 = a_key[alone], a_arc[alone]
        # both move, to filter 0: on a matched label, or from filter 0 on an epsilon pair
        paired = ~a_eps | (flt[a_key] == 0)
        at, rows2 = b_arcs(s2[a_key[paired]], a.olabel[a_arc[paired]])
        key2, arc2, b2 = a_key[paired][at], a_arc[paired][at], b_order[rows2]
        # b moves alone on an input epsilon, to filter 2, after all of a's arcs
        b_keys = np.flatnonzero(flt != 1)
        at, rows3 = b_arcs(s2[b_keys], EPSILON)
        key3, b3 = b_keys[at], b_order[rows3]

        # a-alone before paired keeps each a-epsilon's lone move ahead of its epsilon pairs
        key = np.concatenate((key1, key2, key3))
        order = np.argsort(key * after_a + np.concatenate((arc1, arc2, np.full(len(key3), after_a - 1))), kind="stable")
        counts.append(np.bincount(key, minlength=len(code)))
        zeros = np.zeros(len(key3), dtype=np.int64)
        il.append(np.concatenate((a.ilabel[arc1], a.ilabel[arc2], zeros))[order])
        ol.append(np.concatenate((np.zeros(len(key1), dtype=np.int64), b.olabel[b2], b.olabel[b3]))[order])
        w.append(np.concatenate((a.weight[arc1], _times(a.weight[arc2], b.weight[b2]), b.weight[b3]))[order])
        d1 = np.concatenate((a.nextstate[arc1], a.nextstate[arc2], s1[key3]))
        d2 = np.concatenate((s2[key1], b.nextstate[b2], b.nextstate[b3]))
        d = ((d1 * n2 + d2) * 3 + np.repeat((1, 0, 2), (len(key1), len(key2), len(key3))))[order]

        # unseen codes take the next ids in ascending order
        unique, inverse = np.unique(d, return_inverse=True)
        unique = unique.tolist()
        for c in unique:
            if c not in ids:
                ids[c] = len(codes)
                codes.append(c)
        dst.append(np.fromiter(map(ids.__getitem__, unique), np.int64, len(unique))[inverse])

    # Each column is joined alone, and rebinding its name frees the per-expansion list.
    counts = np.concatenate(counts)
    dst = np.concatenate(dst)
    codes = np.array(codes, dtype=np.int64)
    fw = _times(a.final[codes // 3 // n2], b.final[codes // 3 % n2])
    src = np.repeat(np.arange(len(codes)), counts)
    # Every key is reached from key 0, so the trim keeps the keys that reach a final one.
    keep = _reachable(_offsets(dst, len(codes)), src[np.argsort(dst, kind="stable")], np.flatnonzero(fw < np.inf))
    if not keep[0]:
        return WeightedFst(a.isymbols.copy(), b.osymbols.copy())
    # The kept keys are numbered in stack order among themselves.
    state = _stack_order(np.concatenate(([0], np.cumsum(counts))), dst)
    kept = int(np.count_nonzero(keep))
    numbered = np.zeros(len(codes), dtype=bool)
    numbered[state[keep]] = True
    state = np.cumsum(numbered)[state] - 1
    # The arcs into kept keys live; their sources are kept too.
    live = keep[dst]
    src = state[src[live]]
    dst = state[dst[live]]
    il = np.concatenate(il)[live]
    ol = np.concatenate(ol)[live]
    w = np.concatenate(w)[live]
    # One sort, into `sort_arcs` order.
    order = _lexsort((src, il, ol, dst, w))
    src = src[order]
    il = il[order]
    ol = ol[order]
    w = w[order]
    dst = dst[order]
    final = np.empty(kept)
    final[state[keep]] = fw[keep]
    return WeightedFst(a.isymbols.copy(), b.osymbols.copy(), kept, 0, final, src, il, ol, w, dst)


def _stack_order(offsets: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Number the keys as a stack discovers them, from key 0.

    Key k's arcs go to `dst[offsets[k]:offsets[k + 1]]`. A popped key gives
    its unseen destinations the next numbers, in order of first appearance,
    and pushes them in that order. Only the unseen ones reach Python.
    """
    state = np.full(len(offsets) - 1, NO_STATE, dtype=np.int64)
    state[0] = 0
    bounds = offsets.tolist()
    stack, n = [0], 1
    while stack:
        key = stack.pop()
        d = dst[bounds[key] : bounds[key + 1]]
        for fresh in d[state[d] == NO_STATE].tolist():
            if state[fresh] == NO_STATE:
                state[fresh] = n
                n += 1
                stack.append(fresh)
    return state


def _times(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The semiring product, elementwise: +inf absorbs, even against -inf."""
    with np.errstate(invalid="ignore"):
        return np.where((x == np.inf) | (y == np.inf), np.inf, x + y)


# -- determinization -----------------------------------------------------


def determinize(a: WeightedFst, state_budget: int | None = None) -> WeightedFst:
    """Weighted subset determinization over encoded (ilabel, olabel) pairs.

    The result has at most one arc per (state, ilabel, olabel); residual
    weights are pushed forward so the weighted language is preserved.
    Arcs whose encoded pair is (0, 0) are kept as regular labels, so
    machines with epsilon cycles of that kind (n-gram backoff loops) stay
    representable. Paths of weight +inf (the semiring zero) are dropped.
    Subsets are numbered in the order a stack discovers them, and each
    state's arcs are in (ilabel, olabel) order. Raises ResourceError when
    more subsets are reachable than the state budget (default 10x the
    input size, with a small floor), which must be at least 1.

    This is array code with no step per arc or per subset element.
    Subsets are expanded `_EXPAND_KEYS` at a time in the order they are
    found. The (element, arc) rows of a batch are costed at once and
    sorted by (subset, ilabel, olabel, nextstate); each nextstate keeps
    its least cost and each label the least of those. A label's
    destination, its nextstates and their residuals, is looked up in a
    dict once per distinct destination of the batch. The subsets are
    then numbered by a replay of the stack (`_stack_order`).

    No cost or residual is ever -0.0: the start's residual is 0.0, x + y
    is -0.0 only if x and y are, and x - y only if x is. So costs that
    tie have the same bits, which tie is kept does not matter, and
    subsets that compare equal have the same bytes.
    """
    if state_budget is not None and state_budget < 1:
        raise ConfigurationError("state_budget must be >= 1")
    if a.is_empty():
        return WeightedFst(a.isymbols.copy(), a.osymbols.copy())
    budget = state_budget if state_budget is not None else max(10 * a.num_states(), _DET_BUDGET_FLOOR)
    ids = {np.array([a.start, 0], dtype=np.int64).tobytes(): 0}  # a subset's states and residuals, as bytes
    # Subsets found and not yet expanded, as (sizes, states, residuals), in id order.
    todo = deque([(np.ones(1, dtype=np.int64), np.array([a.start], dtype=np.int64), np.zeros(1))])
    counts, il, ol, w, dst, finals = [], [], [], [], [], []  # per expansion: arcs per subset, the arcs' columns, finals
    while todo:
        size, element, residual = todo.popleft()
        if len(size) > _EXPAND_KEYS:
            cut = int(size[:_EXPAND_KEYS].sum())
            todo.appendleft((size[_EXPAND_KEYS:], element[cut:], residual[cut:]))
            size, element, residual = size[:_EXPAND_KEYS], element[:cut], residual[:cut]
        subset = np.repeat(np.arange(len(size)), size)  # each element's subset
        finals.append(np.minimum.reduceat(_times(residual, a.final[element]), np.cumsum(size) - size))

        # Each element's arcs, costed, grouped by (subset, ilabel, olabel, nextstate).
        row, arc = _spans(a.offsets[element], a.offsets[element + 1] - a.offsets[element])
        cost = _times(residual[row], a.weight[arc])
        live = np.flatnonzero(cost != np.inf)  # a +inf row lies on no path
        row, arc, cost = row[live], arc[live], cost[live]
        columns = (subset[row], a.ilabel[arc], a.olabel[arc], a.nextstate[arc])
        order = _lexsort(columns)
        key, lab_i, lab_o, nxt = (c[order] for c in columns)
        new_label = np.ones(len(order), dtype=bool)
        new_label[1:] = (key[1:] != key[:-1]) | (lab_i[1:] != lab_i[:-1]) | (lab_o[1:] != lab_o[:-1])
        target = np.flatnonzero(new_label | np.concatenate(([True], nxt[1:] != nxt[:-1])))
        value = np.minimum.reduceat(cost[order], target)  # each (label, nextstate)'s least cost
        label = np.flatnonzero(new_label[target])  # each label's first target
        width = np.diff(np.append(label, len(target)))  # and its number of targets
        w_min = np.minimum.reduceat(value, label)
        residual = value - np.repeat(w_min, width)
        nxt = nxt[target]
        head = target[label]
        counts.append(np.bincount(key[head], minlength=len(size)))
        il.append(lab_i[head])
        ol.append(lab_o[head])
        w.append(w_min)

        # Each label's destination subset, one dict lookup per distinct one.
        to = np.empty(len(label), dtype=np.int64)
        new = []  # the labels whose subset is new, in id order
        for n in np.unique(width).tolist():
            at = np.flatnonzero(width == n)
            cells = label[at, None] + np.arange(n)
            keys = np.hstack((nxt[cells], residual[cells].view(np.int64)))
            inverse = _column_ids(keys.T)
            once = np.unique(inverse, return_index=True)[1]
            got = []
            for subset_key, j in zip(keys[once], once.tolist()):
                known = len(ids)
                got.append(ids.setdefault(subset_key.tobytes(), known))
                if got[-1] == known:
                    if known == budget:
                        raise ResourceError(f"determinization exceeded its state budget of {budget} states")
                    new.append(at[j])
            to[at] = np.array(got)[inverse]
        dst.append(to)
        if new:
            cell = _spans(label[new], width[new])[1]
            todo.append((width[new], nxt[cell], residual[cell]))

    counts = np.concatenate(counts)
    dst = np.concatenate(dst)
    state = _stack_order(np.concatenate(([0], np.cumsum(counts))), dst)
    final = np.empty(len(state))
    final[state] = np.concatenate(finals)
    return WeightedFst(
        a.isymbols.copy(), a.osymbols.copy(), len(state), 0, final,
        np.repeat(state, counts), np.concatenate(il), np.concatenate(ol), np.concatenate(w), state[dst],
    )


def is_deterministic(a: WeightedFst) -> bool:
    """True when no state has two arcs sharing an encoded (ilabel, olabel) pair."""
    src = a.sources()
    order = _lexsort((src, a.ilabel, a.olabel))
    keys = np.stack((src[order], a.ilabel[order], a.olabel[order]))
    return not np.all(keys[:, 1:] == keys[:, :-1], axis=0).any()


# -- minimization --------------------------------------------------------


def minimize(a: WeightedFst) -> WeightedFst:
    """Merge equivalent states of a deterministic machine.

    Equivalence is computed by partition refinement after trimming, so two
    states merge exactly when their weighted suffix languages are
    identical. Determinism fixes each state's arc order by (ilabel,
    olabel), so the blocks start from (final weight, labelled arc weights)
    and each round refines them by the block of each arc's nextstate.
    States of one out-degree are refined together, as the columns of one
    matrix with a row per arc position.
    """
    if not is_deterministic(a):
        raise PreconditionError("minimize requires a deterministic input FST")
    trimmed = connect(a)
    if trimmed.is_empty():
        return trimmed
    n = trimmed.num_states()
    order = trimmed.sorted_order()  # (ilabel, olabel) order within each state
    degree = np.diff(trimmed.offsets)
    # Ids of equal (ilabel, olabel, weight) arcs and of equal final weights;
    # the comparisons take -0.0 for 0.0, as a tuple's == does.
    label = _column_ids(np.stack((trimmed.ilabel, trimmed.olabel)), trimmed.weight[None])
    final = _column_ids(trimmed.final[None])
    # Per out-degree d, a matrix with a column per state: the state, then the
    # next state of each of its arcs; the first partition reads the final
    # weight and arc labels in their place.
    groups, members, initial = [], [], []
    for d in np.unique(degree).tolist():
        states = np.flatnonzero(degree == d)
        arcs = order[trimmed.offsets[states] + np.arange(d)[:, None]]
        groups.append(states)
        members.append(np.vstack((states, trimmed.nextstate[arcs])))
        initial.append(np.vstack((final[states], label[arcs])))
    del label, final

    def refine(keys: list[np.ndarray]) -> np.ndarray:
        """Each state's class: one per distinct column of its group's matrix."""
        classes = np.empty(n, dtype=np.int64)
        count = 0
        for states, key in zip(groups, keys):
            ids = _column_ids(key)
            classes[states] = count + ids
            count += int(ids.max()) + 1
        return classes

    classes = refine(initial)
    del initial
    count = int(classes.max()) + 1
    while True:
        classes = refine([classes[m] for m in members])
        if classes.max() + 1 == count:
            break
        count = int(classes.max()) + 1

    # Classes are numbered in the order of their first state, which
    # represents the class and becomes its state; connect numbered the
    # start state 0, so its class is state 0.
    first = np.sort(np.unique(classes, return_index=True)[1])
    number = np.empty(count, dtype=np.int64)
    number[classes[first]] = np.arange(count)
    # The representatives' arcs, emitted already in `sort_arcs` order.
    arc = order[_spans(trimmed.offsets[first], degree[first])[1]]
    return WeightedFst(
        trimmed.isymbols.copy(), trimmed.osymbols.copy(), count, 0, trimmed.final[first],
        np.repeat(np.arange(count), degree[first]), trimmed.ilabel[arc], trimmed.olabel[arc], trimmed.weight[arc],
        number[classes[trimmed.nextstate[arc]]],
    )


def _column_ids(*keys: np.ndarray) -> np.ndarray:
    """Dense ids of the columns of `keys`, 2-D arrays of one width: two
    columns share an id exactly when they are equal in every key. The
    columns are sorted with `np.lexsort` and compared with their
    neighbours."""
    order = np.lexsort([row for key in keys for row in key])
    new = np.zeros(len(order), dtype=bool)
    for key in keys:
        ranked = key[:, order]
        new[1:] |= (ranked[:, 1:] != ranked[:, :-1]).any(axis=0)
    ids = np.empty(len(order), dtype=np.int64)
    ids[order] = np.cumsum(new)
    return ids


# -- relabeling ----------------------------------------------------------


def relabel_ilabels(
    fst: WeightedFst,
    mapping: dict[int, int],
    isymbols: SymbolTable | None = None,
) -> WeightedFst:
    """Copy with input labels rewritten through `mapping` (identity elsewhere)."""
    if min(mapping.values(), default=0) < 0:
        raise ConfigurationError("arc labels must be >= 0")
    table = np.arange(fst.max_ilabel + 1, dtype=np.int64)
    for old, new in mapping.items():
        if 0 <= old < len(table):
            table[old] = new
    src, il, ol, w, dst = fst.columns()
    il = table[il]
    order = _arc_order(src, il, ol, dst, w)
    return WeightedFst(
        isymbols if isymbols is not None else fst.isymbols.copy(), fst.osymbols.copy(),
        fst.num_states(), fst.start, fst.final, *(c[order] for c in (src, il, ol, w, dst)),
    )
