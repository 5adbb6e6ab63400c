"""Value-level redundancy analysis: intervals, value numbers, widening.

The flat taint lattice in :mod:`repro.analysis.redundancy` answers *"may
this register differ across threads?"* but folds every loop-carried value
to MAYBE, so loop counters — which all threads advance in lockstep —
look thread-divergent and almost every block of a real workload
classifies as control-divergent.  This module supplies the value-level
machinery the oracle needs to do better:

* an **interval domain** carried on every lattice element, so even values
  that may differ across threads keep sound per-thread bounds (an ``ANDI
  mask`` yields ``[0, mask]`` no matter how unknown its input was);
* **value numbers** on uniform elements, so joins can tell "the same
  uniform value arrived on both paths" from "two different ones did";
* **loop-uniformity widening**: at every natural-loop header (loop
  structure from :mod:`repro.analysis.dom`), a register that holds
  uniform-kind values on the entry and back edges is widened to a single
  ``UNIFORM-per-iteration`` cell instead of joining to MAYBE, and a
  register that holds ``a*tid + b`` values with a stable coefficient
  ``a`` is widened to ``a*tid + u`` with ``u`` a symbolic uniform base —
  so a tid-strided induction variable stays affine-in-tid across
  iterations.  Interval bounds are widened to +/-inf where unstable and
  then recovered by a bounded narrowing pass that exploits branch-edge
  refinement (the loop guard ``blt r_i, r_trips`` caps the counter);
* a **memory image model**: the words of a build's data image that are
  identical across execution contexts (base image minus per-instance
  overlays minus statically clobbered store ranges).  A load whose
  address interval falls entirely inside the identical region is
  *must-identical*: whenever the dynamic pipeline merges it (equal
  addresses by the RST merge invariant), every context receives the same
  value, so the LVIP can never mispredict it.

Uniformity semantics: ``UNIFORM`` means *identical across thread
contexts executing in lockstep* — the execution model whose merge
potential the oracle estimates.  Widened cells (value numbers tagged
``"w"``) additionally depend on all threads performing the same number
of loop iterations, so they feed only descriptive outputs (block
classes, branch classes, fractions).  Every *enforced* claim — the
merge/RST upper bounds and the per-PC LVIP sets checked against dynamic
runs — rests solely on exact affine forms, widening-free injectivity,
and interval reasoning, which hold with or without lockstep.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field

from repro.analysis.cfg import CFG
from repro.analysis.dataflow import ENTRY_DEF
from repro.analysis.dom import natural_loops
from repro.func.state import DEFAULT_STACK_TOP, STACK_STRIDE
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Opcode
from repro.isa.registers import NUM_ARCH_REGS, SP

# ------------------------------------------------------------------ values
# Flat-kind lattice with interval payloads, encoded as tuples so states
# hash and compare structurally:
#
#   ("B",)                       bottom (no path reaches this point yet)
#   ("C", v)                     known constant, identical across threads
#   ("U", vn, lo, hi)            uniform across (lockstep) threads; vn is a
#                                hashable value number
#   ("D", site, a, b, lo, hi)    injective in tid: a*tid + b with int a != 0
#                                and b an int or a symbolic uniform base
#                                (a "w"-tagged value number); or with
#                                a is b is None an unknown injective
#                                function of tid.  [lo, hi] bounds every
#                                thread's value.
#   ("M", lo, hi)                may differ across threads; [lo, hi]
#                                bounds any thread's value
#
# Interval endpoints are Python ints or None (unbounded).  Floats carry
# (None, None).  Value numbers are tuples: ("s", pc) for an unmodelled
# op at one site, ("ld", pc) for an identical-memory load, ("w", ...)
# for anything produced by loop widening (lockstep-only precision).
Value = tuple[object, ...]
Interval = tuple[int | None, int | None]

BOT: Value = ("B",)
TOP: Value = ("M", None, None)
UNBOUNDED: Interval = (None, None)

#: One abstract register file: a value per architected register.
RegVals = tuple[Value, ...]

_S64_MIN = -(1 << 63)
_S64_MAX = (1 << 63) - 1
_MASK64 = (1 << 64) - 1

#: Per-block visit count after which widening applies unconditionally
#: (backstop for irreducible cycles the header set does not cover).
_SOFT_VISIT_CAP = 24
#: Absolute per-run visit backstop; hitting it raises.
_HARD_VISIT_FACTOR = 512
#: Narrowing sweeps after the ascending fixpoint stabilises.
_NARROWING_SWEEPS = 2
#: Maximum number of word addresses a load classification will enumerate.
_MAX_ADDR_SPAN = 1 << 16

WORD = 8


class ValueAnalysisDivergence(RuntimeError):
    """The widening fixpoint failed to stabilise (analysis bug)."""


def const(v: int | float) -> Value:
    return ("C", v)


def uniform(vn: object, lo: int | None, hi: int | None) -> Value:
    if lo is not None and lo == hi:
        return ("C", lo)
    return ("U", vn, lo, hi)


def maybe(lo: int | None, hi: int | None) -> Value:
    if lo is not None and lo == hi:
        # Every thread's value sits in [v, v]: it is the constant v.
        return ("C", lo)
    return ("M", lo, hi)


def injective(site: object, lo: int | None, hi: int | None) -> Value:
    """An unknown-form injective function of the thread id."""
    return ("D", site, None, None, lo, hi)


def affine(
    site: object, a: int, b: object, nctx: int, iv: Interval = UNBOUNDED
) -> Value:
    """``a*tid + b`` for tids ``0..nctx-1`` (``a != 0``).

    With an int *b* the interval is derived exactly from the affine
    endpoints; a symbolic *b* keeps the supplied fallback interval.
    """
    if isinstance(b, int):
        first, last = b, a * (nctx - 1) + b
        lo, hi = (first, last) if first <= last else (last, first)
        if not _S64_MIN <= lo <= hi <= _S64_MAX:
            return ("D", site, a, b, None, None)
        return ("D", site, a, b, lo, hi)
    return ("D", site, a, b, iv[0], iv[1])


def is_varying(v: Value) -> bool:
    """May the value differ across threads?"""
    return v[0] in ("D", "M")


def is_uniform_kind(v: Value) -> bool:
    return v[0] in ("C", "U")


def is_widened(v: Value) -> bool:
    """Does the value's precision rest on loop widening (lockstep-only)?"""
    if v[0] == "U":
        vn = v[1]
        return isinstance(vn, tuple) and bool(vn) and vn[0] == "w"
    if v[0] == "D":
        return isinstance(v[3], tuple)
    return False


def const_of(v: Value) -> int | None:
    """The known integer constant, if the value is an integer constant."""
    if v[0] == "C" and isinstance(v[1], int):
        return v[1]
    return None


def exact_affine_of(v: Value) -> tuple[int, int] | None:
    """The known integer (a, b) of an exact-affine DIFF value."""
    if v[0] == "D" and isinstance(v[2], int) and isinstance(v[3], int):
        return v[2], v[3]
    return None


def as_affine(v: Value) -> tuple[int, object] | None:
    """View a value as ``a*tid + b`` with int ``a``; ``b`` may be symbolic."""
    if v[0] == "D" and isinstance(v[2], int):
        return v[2], v[3]
    c = const_of(v)
    if c is not None:
        return 0, c
    return None


def interval_of(v: Value) -> Interval:
    """Sound bounds on any single thread's value ((None, None) = unknown)."""
    tag = v[0]
    if tag == "C":
        payload = v[1]
        if isinstance(payload, int):
            return payload, payload
        return UNBOUNDED
    if tag == "U":
        return v[2], v[3]  # type: ignore[return-value]
    if tag == "D":
        return v[4], v[5]  # type: ignore[return-value]
    if tag == "M":
        return v[1], v[2]  # type: ignore[return-value]
    return UNBOUNDED  # BOT: never queried on live paths


def with_interval(v: Value, lo: int | None, hi: int | None) -> Value:
    """The same abstract value, restricted to the interval [lo, hi]."""
    tag = v[0]
    if tag == "U":
        return uniform(v[1], lo, hi)
    if tag == "D":
        return ("D", v[1], v[2], v[3], lo, hi)
    if tag == "M":
        return maybe(lo, hi)
    return v


# --------------------------------------------------------------- intervals
def _iv_join(a: Interval, b: Interval) -> Interval:
    alo, ahi = a
    blo, bhi = b
    lo = None if alo is None or blo is None else min(alo, blo)
    hi = None if ahi is None or bhi is None else max(ahi, bhi)
    return lo, hi


def _iv_widen(old: Interval, new: Interval) -> Interval:
    """Keep each bound of *old* only where *new* stays inside it."""
    olo, ohi = old
    nlo, nhi = new
    lo = olo if olo is not None and nlo is not None and nlo >= olo else None
    hi = ohi if ohi is not None and nhi is not None and nhi <= ohi else None
    return lo, hi


def _fits_s64(lo: int, hi: int) -> bool:
    return _S64_MIN <= lo and hi <= _S64_MAX


def _clamp_lo(lo: int | None) -> int | None:
    """A computed lower bound below the s64 range carries no information."""
    return None if lo is None or lo < _S64_MIN else lo


def _clamp_hi(hi: int | None) -> int | None:
    return None if hi is None or hi > _S64_MAX else hi


def _iv_addsub(a: Interval, b: Interval, sign: int) -> Interval:
    """[a] + sign*[b], per-bound (None = unbounded on that side).

    One-sided bounds are kept: ``[0, ?] + [1, 1] = [1, ?]``, the pattern
    every un-guarded loop counter produces.  Bounds assume the guest does
    not wrap 64-bit arithmetic (the NSW-style contract stated in the
    module docstring); a violation would surface in the dynamic
    validation gate, not silently.
    """
    alo, ahi = a
    blo, bhi = b
    if sign < 0:
        blo, bhi = (None if bhi is None else -bhi), (None if blo is None else -blo)
    lo = None if alo is None or blo is None else alo + blo
    hi = None if ahi is None or bhi is None else ahi + bhi
    return _clamp_lo(lo), _clamp_hi(hi)


def _iv_mul(a: Interval, b: Interval) -> Interval:
    alo, ahi = a
    blo, bhi = b
    if alo is not None and ahi is not None and blo is not None and bhi is not None:
        products = [alo * blo, alo * bhi, ahi * blo, ahi * bhi]
        return _clamp_lo(min(products)), _clamp_hi(max(products))
    # Partially bounded: only the all-non-negative case keeps bounds
    # (product of lower bounds below, of upper bounds above).
    if alo is not None and alo >= 0 and blo is not None and blo >= 0:
        hi = None if ahi is None or bhi is None else ahi * bhi
        return _clamp_lo(alo * blo), _clamp_hi(hi)
    return UNBOUNDED


def _nonneg(iv: Interval) -> bool:
    return iv[0] is not None and iv[0] >= 0


def _iv_and(
    a: Interval, b: Interval, ca: int | None, cb: int | None
) -> Interval:
    # A non-negative constant mask bounds the result regardless of the
    # other operand — the transfer generated address chains rely on.
    masks = [m for m in (ca, cb) if m is not None and m >= 0]
    if masks:
        return 0, min(masks)
    if _nonneg(a) and _nonneg(b):
        his = [h for h in (a[1], b[1]) if h is not None]
        if his:
            return 0, min(his)
        return 0, None
    return UNBOUNDED


def _iv_orxor(a: Interval, b: Interval) -> Interval:
    if _nonneg(a) and _nonneg(b) and a[1] is not None and b[1] is not None:
        bound = max(a[1], b[1], 1)
        return 0, (1 << bound.bit_length()) - 1
    return UNBOUNDED


def _iv_shift(op: Opcode, a: Interval, shift: int | None) -> Interval:
    if shift is None or not 0 <= shift <= 63:
        if op in (Opcode.SRL, Opcode.SRLI):
            return 0, _S64_MAX  # a logical shift result is non-negative
        return UNBOUNDED
    lo, hi = a
    if op in (Opcode.SLL, Opcode.SLLI):
        return (
            _clamp_lo(None if lo is None else lo << shift),
            _clamp_hi(None if hi is None else hi << shift),
        )
    if op in (Opcode.SRL, Opcode.SRLI):
        if shift == 0:
            return a
        if lo is not None and lo >= 0:
            return lo >> shift, (_S64_MAX if hi is None else hi) >> shift
        return 0, _MASK64 >> shift
    # SRA: monotone per-bound, never overflows.
    return (
        None if lo is None else lo >> shift,
        None if hi is None else hi >> shift,
    )


def _op_interval(op: Opcode, x: Value, y: Value) -> Interval:
    """Sound result interval of an integer ALU op, independent of kinds."""
    ix, iy = interval_of(x), interval_of(y)
    cx, cy = const_of(x), const_of(y)
    if op in (Opcode.ADD, Opcode.ADDI):
        return _iv_addsub(ix, iy, 1)
    if op is Opcode.SUB:
        return _iv_addsub(ix, iy, -1)
    if op is Opcode.MUL:
        return _iv_mul(ix, iy)
    if op in (Opcode.AND, Opcode.ANDI):
        return _iv_and(ix, iy, cx, cy)
    if op in (Opcode.OR, Opcode.ORI, Opcode.XOR, Opcode.XORI):
        return _iv_orxor(ix, iy)
    if op in (Opcode.SLL, Opcode.SLLI, Opcode.SRL, Opcode.SRLI, Opcode.SRA):
        return _iv_shift(op, ix, cy)
    if op in (Opcode.SLT, Opcode.SLTI, Opcode.SEQ):
        return 0, 1
    return UNBOUNDED


# ----------------------------------------------------------- 64-bit folding
def _to_s64(value: int) -> int:
    value &= _MASK64
    return value - (1 << 64) if value >= 1 << 63 else value


def _fold(op: Opcode, x: int, y: int) -> int | None:
    """Constant-fold one integer op (DIV/REM excluded: div-by-zero)."""
    if op in (Opcode.ADD, Opcode.ADDI):
        return _to_s64(x + y)
    if op is Opcode.SUB:
        return _to_s64(x - y)
    if op is Opcode.MUL:
        return _to_s64(x * y)
    if op in (Opcode.AND, Opcode.ANDI):
        return x & y
    if op in (Opcode.OR, Opcode.ORI):
        return x | y
    if op in (Opcode.XOR, Opcode.XORI):
        return x ^ y
    if op in (Opcode.SLL, Opcode.SLLI):
        return _to_s64(x << (y & 63))
    if op in (Opcode.SRL, Opcode.SRLI):
        return (x & _MASK64) >> (y & 63)
    if op is Opcode.SRA:
        return x >> (y & 63)
    if op in (Opcode.SLT, Opcode.SLTI):
        return int(x < y)
    if op is Opcode.SEQ:
        return int(x == y)
    return None


_INT_OPS = frozenset({
    Opcode.ADD, Opcode.SUB, Opcode.MUL, Opcode.DIV, Opcode.REM,
    Opcode.AND, Opcode.OR, Opcode.XOR, Opcode.SLL, Opcode.SRL, Opcode.SRA,
    Opcode.SLT, Opcode.SEQ,
    Opcode.ADDI, Opcode.ANDI, Opcode.ORI, Opcode.XORI,
    Opcode.SLLI, Opcode.SRLI, Opcode.SLTI,
})

_IMM_OPS = frozenset({
    Opcode.ADDI, Opcode.ANDI, Opcode.ORI, Opcode.XORI,
    Opcode.SLLI, Opcode.SRLI, Opcode.SLTI,
})


# ------------------------------------------------------------------- joins
def join_value(a: Value, b: Value) -> Value:
    if a == b:
        return a
    if a == BOT:
        return b
    if b == BOT:
        return a
    lo, hi = _iv_join(interval_of(a), interval_of(b))
    ka, kb = a[0], b[0]
    if ka == "U" and kb == "U" and a[1] == b[1]:
        return uniform(a[1], lo, hi)
    if ka == "D" and kb == "D" and a[1:4] == b[1:4]:
        return ("D", a[1], a[2], a[3], lo, hi)
    return maybe(lo, hi)


def _header_merge(
    cands: list[Value], header: int, reg: int, kind_widen: bool
) -> Value:
    """Join at a natural-loop header, widening loop-carried kinds.

    Where a plain join of the entry and back-edge values would collapse
    to MAYBE, two loop-uniformity widenings apply:

    * every incoming value uniform-kind (the lockstep loop-counter
      pattern ``C(0)`` meets ``C(1)`` meets ...): merge to one stable
      UNIFORM-per-iteration cell named after the header;
    * every incoming value affine-in-tid with the same nonzero
      coefficient ``a`` (the tid-strided counter ``a*tid + 0`` meets
      ``a*tid + 1`` ...): merge to ``a*tid + u`` with a stable symbolic
      uniform base.

    Interval bounds are joined; the enclosing fixpoint widens them
    separately.  Both widened forms are "w"-tagged: their extra
    precision assumes lockstep iteration and is kept out of every
    enforced bound (see module docstring).
    """
    live = [c for c in cands if c != BOT]
    if not live:
        return BOT
    merged = live[0]
    for c in live[1:]:
        merged = join_value(merged, c)
    if merged[0] != "M" or not kind_widen:
        return merged
    iv: Interval = interval_of(live[0])
    for c in live[1:]:
        iv = _iv_join(iv, interval_of(c))
    if all(is_uniform_kind(c) for c in live):
        return uniform(("w", header, reg), iv[0], iv[1])
    coeffs: set[int] = set()
    for c in live:
        pair = as_affine(c)
        if pair is None or pair[0] == 0:
            return merged
        coeffs.add(pair[0])
    if len(coeffs) == 1:
        return affine(
            ("w", header, reg), coeffs.pop(), ("w", header, reg), 0, iv
        )
    return merged


def _widen_value(old: Value, new: Value) -> Value:
    """Interval widening: keep *old*'s stable bounds, drop unstable ones.

    The kind is taken from *new* (the already-merged value — at headers
    the output of :func:`_header_merge`, whose widened cells must not be
    re-joined against the previous iterate, or ``C(0) vs U(w)`` would
    collapse to MAYBE and undo the loop-uniformity widening).  Only the
    interval is widened, which is what unbounded ascending chains are
    made of.
    """
    if old == BOT or old == new:
        return new
    if new == BOT:
        return old
    lo, hi = _iv_widen(interval_of(old), interval_of(new))
    return with_interval(new, lo, hi)


# ------------------------------------------------------------ memory model
@dataclass(frozen=True)
class Region:
    """One named array of the data image: ``[start, end)`` in bytes."""

    name: str
    start: int
    end: int

    def contains(self, addr: int) -> bool:
        return self.start <= addr < self.end


def regions_from_symbols(
    symbols: Mapping[str, int], data: Mapping[int, int | float]
) -> tuple[Region, ...]:
    """Per-array region table from a program's symbol table.

    Each symbol opens a region that runs to the next symbol's address;
    the last region runs to the end of the mapped image (at least one
    word, so a trailing empty array still gets a region).
    """
    if not symbols:
        return ()
    starts = sorted(symbols.items(), key=lambda item: (item[1], item[0]))
    image_end = max(data, default=0) + WORD
    regions: list[Region] = []
    for index, (name, start) in enumerate(starts):
        end = (
            starts[index + 1][1]
            if index + 1 < len(starts)
            else max(image_end, start + WORD)
        )
        if end > start:
            regions.append(Region(name, start, end))
    return tuple(regions)


class MemoryModel:
    """Which data-image words are identical across execution contexts.

    Built from a base data image plus per-context overlays (the
    multi-execution instance inputs).  A word is *identical* when every
    context observes the base value — i.e. no overlay rebinds it to a
    different value — and no store can reach it (clobbered ranges are
    registered from the store sweep of a prior analysis phase, making
    the classification sound without a combined memory fixpoint).

    With a *regions* table (per-array points-to refinement) the model
    additionally enforces the **region-confinement contract**: an access
    whose statically-known lower bound lands inside a named array is
    assumed never to run past that array's end.  The workload generator
    upholds this by construction — indices are masked to the array size
    and cursors advance at most a fixed count per trip of a loop whose
    trip count is sized to the array — and the claim is validated
    dynamically: the campaign oracle gate fails any run with an LVIP
    mispredict at a must-identical PC, so an unsound confinement
    surfaces as a hard failure rather than silent optimism.
    """

    def __init__(
        self,
        data: dict[int, int | float],
        overlays: Sequence[dict[int, int | float]] = (),
        shared: bool = False,
        regions: Sequence[Region] = (),
    ) -> None:
        self._values: dict[int, list[int | float]] = {
            addr: [value] for addr, value in data.items()
        }
        self._identical: set[int] = set(data)
        for overlay in overlays:
            for addr, value in overlay.items():
                base = data.get(addr)
                if base is None or base != value:
                    self._identical.discard(addr)
                self._values.setdefault(addr, []).append(value)
        # One shared address space (multi-threaded jobs): every word is
        # trivially "the same word" for all threads, so image identity
        # always holds; only stores (handled by the transfer's reaching-
        # store check) can make two threads observe different values.
        self.shared = shared
        self.regions: tuple[Region, ...] = tuple(
            sorted(regions, key=lambda region: region.start)
        )
        self._clobbered: list[Interval] = []
        self._memo: dict[Interval, tuple[bool, Interval]] = {}

    def region_at(self, addr: int) -> Region | None:
        """The named array containing *addr*, if any."""
        for region in self.regions:
            if region.contains(addr):
                return region
        return None

    def confine(self, lo: int | None, hi: int | None) -> Interval:
        """Apply the region-confinement contract to an access interval.

        An interval with a known lower bound inside a named array but no
        upper bound (a widened cursor) is confined to that array; a
        bounded interval is the analysis' own proof and is left alone.
        """
        if lo is None or hi is not None or lo < 0:
            return (lo, hi)
        region = self.region_at(lo)
        if region is None:
            return (lo, hi)
        return (lo, region.end - 1)

    def clobber(self, lo: int | None, hi: int | None) -> None:
        """Register a store address range: those words are never identical."""
        self._clobbered.append((lo, hi))
        self._memo.clear()

    def _is_clobbered(self, addr: int) -> bool:
        for lo, hi in self._clobbered:
            if (lo is None or addr >= lo) and (hi is None or addr <= hi):
                return True
        return False

    def classify_load(
        self, lo: int | None, hi: int | None
    ) -> tuple[bool, Interval]:
        """(must_identical, value interval) for a load of [lo, hi].

        *must_identical* means every word-aligned address in the range is
        an identical, never-stored word of the image: whatever common
        address merged threads present, they all receive the same value.
        """
        key: Interval = (lo, hi)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        result = self._classify(lo, hi)
        self._memo[key] = result
        return result

    def _classify(
        self, lo: int | None, hi: int | None
    ) -> tuple[bool, Interval]:
        # Negative addresses fault, so executions that continue past the
        # load accessed an address >= 0; same argument as alignment below.
        lo = 0 if lo is None else max(lo, 0)
        start = (lo + WORD - 1) // WORD * WORD  # loads fault unless aligned
        if hi is not None and start > hi:
            # No aligned address exists: the load always faults, so no
            # execution continues past it.  Claim nothing.
            return False, UNBOUNDED
        if hi is not None and hi - start <= _MAX_ADDR_SPAN * WORD:
            return self._classify_dense(start, hi)
        return self._classify_sparse(start, hi)

    def _classify_dense(self, start: int, hi: int) -> tuple[bool, Interval]:
        """Word-by-word walk of a small bounded range."""
        identical = True
        vlo: int | None = None
        vhi: int | None = None
        bounded = True
        for addr in range(start, hi + 1, WORD):
            if self._is_clobbered(addr):
                return False, UNBOUNDED
            # An unmapped word reads as 0 in every context: identical.
            values = self._values.get(addr, [0])
            if (
                identical
                and not self.shared
                and addr in self._values
                and addr not in self._identical
            ):
                identical = False
            for value in values:
                if not isinstance(value, int):
                    bounded = False
                    continue
                vlo = value if vlo is None else min(vlo, value)
                vhi = value if vhi is None else max(vhi, value)
        if not bounded:
            vlo, vhi = None, None
        return identical, (vlo, vhi)

    def _classify_sparse(
        self, start: int, hi: int | None
    ) -> tuple[bool, Interval]:
        """Huge or half-open range: check the finite differing sets.

        Every word is identical unless it is mapped-and-differing or
        inside a clobbered store range, both of which are finite
        collections we can scan without enumerating addresses.
        """
        for clo, chi in self._clobbered:
            clo_eff = 0 if clo is None else clo
            if (hi is None or clo_eff <= hi) and (chi is None or chi >= start):
                return False, UNBOUNDED
        vlo, vhi = 0, 0  # a large range always contains unmapped words
        bounded = True
        for addr, values in self._values.items():
            if addr < start or (hi is not None and addr > hi):
                continue
            if not self.shared and addr not in self._identical:
                return False, UNBOUNDED
            for value in values:
                if not isinstance(value, int):
                    bounded = False
                    continue
                vlo, vhi = min(vlo, value), max(vhi, value)
        return True, ((vlo, vhi) if bounded else UNBOUNDED)


# ---------------------------------------------------------------- transfer
class _Transfer:
    """Per-instruction abstract transfer over mutable register lists."""

    def __init__(
        self,
        nctx: int,
        memory: MemoryModel | None,
        tid_value: int | None,
        reaching_stores: dict[int, tuple[Interval, ...]] | None = None,
    ) -> None:
        self.nctx = nctx
        self.memory = memory
        self.tid_value = tid_value
        # Load pc -> address intervals of stores with a path to that load
        # (flow-sensitive clobbering: a store that can never execute
        # before a load cannot change what the load observes).
        self.reaching_stores = reaching_stores or {}

    def _store_blocked(self, pc: int, lo: int | None, hi: int | None) -> bool:
        """May any store reaching *pc* overlap the address range?"""
        for slo, shi in self.reaching_stores.get(pc, ()):
            if (hi is None or slo is None or slo <= hi) and (
                lo is None or shi is None or shi >= lo
            ):
                return True
        return False

    def classify(
        self, pc: int, lo: int | None, hi: int | None
    ) -> tuple[bool, Interval]:
        """Strict cross-context identity of the load at *pc* over [lo, hi]."""
        if self.memory is None:
            return False, UNBOUNDED
        lo, hi = self.memory.confine(lo, hi)
        if self._store_blocked(pc, lo, hi):
            return False, UNBOUNDED
        return self.memory.classify_load(lo, hi)

    def access_address(
        self, inst: Instruction, regs: Sequence[Value]
    ) -> Interval:
        """Address interval of a memory access: base register + disp."""
        base = regs[inst.rs1] if inst.rs1 is not None else const(0)
        disp = inst.imm if isinstance(inst.imm, int) else 0
        lo, hi = interval_of(base)
        return (
            _clamp_lo(None if lo is None else lo + disp),
            _clamp_hi(None if hi is None else hi + disp),
        )

    def alu(self, pc: int, op: Opcode, x: Value, y: Value) -> Value:
        if x == BOT or y == BOT:
            return BOT
        cx, cy = const_of(x), const_of(y)
        if cx is not None and cy is not None:
            folded = _fold(op, cx, cy)
            if folded is not None:
                return const(folded)
            iv0 = _op_interval(op, x, y)
            return uniform(("s", pc), iv0[0], iv0[1])

        # Affine combinations: (a1*t + b1) op (a2*t + b2), either side
        # possibly constant (a == 0).  ADD/SUB stay affine even with a
        # symbolic uniform base; MUL by a constant scales.
        if op in (Opcode.ADD, Opcode.ADDI, Opcode.SUB):
            pa, pb = as_affine(x), as_affine(y)
            if pa is not None and pb is not None:
                sign = -1 if op is Opcode.SUB else 1
                a = pa[0] + sign * pb[0]
                iv = _op_interval(op, x, y)
                if isinstance(pa[1], int) and isinstance(pb[1], int):
                    b: object = pa[1] + sign * pb[1]
                else:
                    b = ("w", pc)  # symbolic uniform base, widening-tainted
                if a == 0:
                    if isinstance(b, int):
                        return const(b)
                    return uniform(b, iv[0], iv[1])
                return affine(pc, a, b, self.nctx, iv)
        if op is Opcode.MUL:
            pair = as_affine(x) if x[0] == "D" else None
            c = cy
            if pair is None and y[0] == "D":
                pair = as_affine(y)
                c = cx
            if pair is not None and c is not None:
                if c == 0:
                    return const(0)
                iv = _op_interval(op, x, y)
                if isinstance(pair[1], int):
                    return affine(pc, pair[0] * c, pair[1] * c, self.nctx, iv)
                return affine(pc, pair[0] * c, ("w", pc), self.nctx, iv)

        iv = _op_interval(op, x, y)
        dx, dy = x[0] == "D", y[0] == "D"
        # Injectivity-preserving ops: combining an injective-in-tid value
        # with a thread-uniform one keeps it injective (form unknown).
        # Widened uniforms are excluded: their "identical across threads"
        # claim assumes lockstep, too weak to promise pairwise-distinct.
        if dx != dy:
            other = y if dx else x
            if (
                is_uniform_kind(other)
                and not is_widened(other)
                and op in (
                    Opcode.ADD, Opcode.ADDI, Opcode.SUB,
                    Opcode.XOR, Opcode.XORI,
                )
            ):
                return injective(pc, iv[0], iv[1])
        if x[0] == "M" or y[0] == "M" or dx or dy:
            return maybe(iv[0], iv[1])
        return uniform(("s", pc), iv[0], iv[1])

    def apply(self, pc: int, inst: Instruction, regs: list[Value]) -> None:
        dst = inst.dst
        if dst is None:
            return
        op = inst.op

        def src(reg: int | None) -> Value:
            return const(0) if reg is None else regs[reg]

        result: Value
        if op is Opcode.LI or op is Opcode.FLI:
            result = const(inst.imm if inst.imm is not None else 0)
        elif op is Opcode.TID:
            if self.tid_value is not None:
                result = const(self.tid_value)
            elif self.nctx > 1:
                result = affine(pc, 1, 0, self.nctx)
            else:
                result = const(0)
        elif op is Opcode.NCTX:
            result = const(self.nctx)
        elif op is Opcode.JAL:
            result = const(pc + 1)  # link register: a code address, uniform
        elif op in (Opcode.LW, Opcode.FLW):
            result = self._load(pc, inst, regs)
        elif op is Opcode.TRECV:
            result = TOP  # message contents are not modelled
        elif op in _INT_OPS:
            if op in _IMM_OPS:
                imm = const(inst.imm if inst.imm is not None else 0)
                result = self.alu(pc, op, src(inst.rs1), imm)
            else:
                result = self.alu(pc, op, src(inst.rs1), src(inst.rs2))
        elif op in (Opcode.FCVT, Opcode.FNEG):
            x = src(inst.rs1)
            if x == BOT:
                result = BOT
            elif x[0] == "D":
                result = injective(pc, None, None)  # strictly monotone
            elif x[0] == "M":
                result = TOP
            else:
                result = uniform(("s", pc), None, None)
        else:
            # Remaining fp ops and compares: uniform in, uniform out.
            operands = [src(inst.rs1), src(inst.rs2)]
            iv = (0, 1) if op in (Opcode.FSLT, Opcode.FSEQ) else UNBOUNDED
            if any(v == BOT for v in operands):
                result = BOT
            elif any(is_varying(v) for v in operands):
                result = maybe(iv[0], iv[1])
            else:
                result = uniform(("s", pc), iv[0], iv[1])
        regs[dst] = result

    def _load(self, pc: int, inst: Instruction, regs: list[Value]) -> Value:
        if self.memory is None:
            return TOP
        lo, hi = self.access_address(inst, regs)
        identical, (vlo, vhi) = self.classify(pc, lo, hi)
        if inst.op is Opcode.FLW:
            vlo, vhi = None, None  # fp registers carry no interval
        if identical:
            return uniform(("ld", pc), vlo, vhi)
        if self.memory.shared:
            # One shared image: lockstep threads read the same word at
            # the same instant, whatever stores preceded it — uniform
            # per iteration, but only under lockstep, hence "w"-tagged
            # (descriptive tier only, never an enforced claim).
            return uniform(("w", pc), vlo, vhi)
        return maybe(vlo, vhi)


# ----------------------------------------------------- branch-edge refining
def _refine_value(v: Value, lo: int | None, hi: int | None) -> Value | None:
    """Intersect *v* with [lo, hi]; None signals an infeasible edge."""
    vlo, vhi = interval_of(v)
    nlo = vlo if lo is None else (lo if vlo is None else max(vlo, lo))
    nhi = vhi if hi is None else (hi if vhi is None else min(vhi, hi))
    if nlo is not None and nhi is not None and nlo > nhi:
        return None
    if const_of(v) is not None:
        return v  # exact already; feasibility was checked above
    if (nlo, nhi) == (vlo, vhi):
        return v
    return with_interval(v, nlo, nhi)


def _refine_edge(inst: Instruction, taken: bool, regs: list[Value]) -> bool:
    """Narrow branch-operand intervals along one CFG edge.

    Returns False when the constraint is unsatisfiable (dead edge).
    """
    if inst.rs1 is None or inst.rs2 is None:
        return True
    x, y = regs[inst.rs1], regs[inst.rs2]
    if x == BOT or y == BOT:
        return True
    (xlo, xhi), (ylo, yhi) = interval_of(x), interval_of(y)
    op = inst.op
    lt = (op is Opcode.BLT and taken) or (op is Opcode.BGE and not taken)
    ge = (op is Opcode.BLT and not taken) or (op is Opcode.BGE and taken)
    eq = (op is Opcode.BEQ and taken) or (op is Opcode.BNE and not taken)
    nx: Value | None = x
    ny: Value | None = y
    if lt:  # x < y
        nx = _refine_value(x, None, None if yhi is None else yhi - 1)
        ny = _refine_value(y, None if xlo is None else xlo + 1, None)
    elif ge:  # x >= y
        nx = _refine_value(x, ylo, None)
        ny = _refine_value(y, None, xhi)
    elif eq:  # x == y
        nx = _refine_value(x, ylo, yhi)
        ny = _refine_value(y, xlo, xhi)
    if nx is None or ny is None:
        return False
    if inst.rs1 != 0:
        regs[inst.rs1] = nx
    if inst.rs2 != 0:
        regs[inst.rs2] = ny
    return True


# --------------------------------------------------- branch classification
def classify_branch(inst: Instruction, state: Sequence[Value], nctx: int) -> str:
    """Classify a conditional branch: 'uniform', 'may', or 'must' diverge."""
    x = state[inst.rs1] if inst.rs1 is not None else const(0)
    y = state[inst.rs2] if inst.rs2 is not None else const(0)
    if x == BOT or y == BOT or nctx < 2:
        return "uniform"
    if is_uniform_kind(x) and is_uniform_kind(y):
        return "uniform"

    # Reduce to d(t) = a*t + b vs 0: the outcome as a function of the
    # thread id.  Symbolic uniform bases cancel when the coefficients
    # match — the widened tid-strided loop-counter guard.
    pa, pb = as_affine(x), as_affine(y)
    if pa is not None and pb is not None:
        a = pa[0] - pb[0]
        if a == 0:
            return "uniform"  # same tid dependence cancels: threads agree
        if isinstance(pa[1], int) and isinstance(pb[1], int):
            b = pa[1] - pb[1]
            if inst.op in (Opcode.BEQ, Opcode.BNE):
                # d(t) == 0 at exactly one real t; divergent iff that t is
                # a live thread id (the others then disagree with it).
                if b % a == 0 and 0 <= -b // a < nctx:
                    return "must"
                return "uniform"  # no thread satisfies equality: all agree
            # BLT/BGE on lhs < rhs: d(t) < 0 is monotone in t.
            first = b < 0
            last = a * (nctx - 1) + b < 0
            return "must" if first != last else "uniform"

    # Interval separation: a comparison whose outcome is the same for
    # every thread is uniform even when the operands may differ.
    (xlo, xhi), (ylo, yhi) = interval_of(x), interval_of(y)
    if inst.op in (Opcode.BEQ, Opcode.BNE):
        if (xhi is not None and ylo is not None and xhi < ylo) or (
            yhi is not None and xlo is not None and yhi < xlo
        ):
            return "uniform"  # disjoint intervals: never equal, all agree
    else:  # BLT / BGE compare lhs < rhs
        if xhi is not None and ylo is not None and xhi < ylo:
            return "uniform"  # always <
        if xlo is not None and yhi is not None and xlo >= yhi:
            return "uniform"  # never <
    return "may"


# ------------------------------------------------------------------ engine
@dataclass
class LoadClass:
    """Static classification of one load site."""

    pc: int
    addr_lo: int | None
    addr_hi: int | None
    must_identical: bool
    #: Named array (per-array region) containing the confined lower
    #: bound, when the program's symbol table resolves one.
    region: str | None = None


@dataclass
class ValueAnalysis:
    """Fixpoint result of the value-level analysis over one CFG."""

    cfg: CFG
    nctx: int
    block_in: list[RegVals]
    block_out: list[RegVals]
    reachable: set[int]
    #: pc -> 'uniform' | 'may' | 'must' for every reachable cond branch.
    branch_classes: dict[int, str] = field(default_factory=dict)
    #: pc -> classification for every reachable load.
    loads: dict[int, LoadClass] = field(default_factory=dict)
    #: pc -> store address interval for every reachable store.
    store_intervals: dict[int, Interval] = field(default_factory=dict)
    #: Loop headers where at least one register was kind-widened.
    widened_headers: frozenset[int] = frozenset()
    transfer: _Transfer | None = None

    def apply(self, pc: int, regs: list[Value]) -> None:
        """Advance a mutable register list across the instruction at *pc*."""
        assert self.transfer is not None
        self.transfer.apply(pc, self.cfg.instructions[pc], regs)

    def eligible_load_pcs(self) -> frozenset[int]:
        """Load PCs an LVIP check could ever target (reachable loads)."""
        return frozenset(self.loads)

    def must_identical_load_pcs(self) -> frozenset[int]:
        """Loads that provably return identical values when merged."""
        return frozenset(
            pc for pc, lc in self.loads.items() if lc.must_identical
        )


def _rpo(cfg: CFG) -> list[int]:
    """Reverse postorder over the successor graph, from the entry block."""
    seen = {cfg.entry_block}
    order: list[int] = []
    stack: list[tuple[int, int]] = [(cfg.entry_block, 0)]
    while stack:
        bid, idx = stack[-1]
        succs = cfg.blocks[bid].succs
        if idx < len(succs):
            stack[-1] = (bid, idx + 1)
            succ = succs[idx]
            if succ not in seen:
                seen.add(succ)
                stack.append((succ, 0))
        else:
            stack.pop()
            order.append(bid)
    order.reverse()
    return order


class _Engine:
    """Worklist fixpoint with loop-header widening and narrowing."""

    def __init__(
        self,
        cfg: CFG,
        nctx: int,
        boundary: RegVals,
        transfer: _Transfer,
    ) -> None:
        self.cfg = cfg
        self.nctx = nctx
        self.boundary = boundary
        self.transfer = transfer
        nblocks = len(cfg.blocks)
        bot_state: RegVals = tuple([BOT] * NUM_ARCH_REGS)
        self.block_in: list[RegVals] = [bot_state] * nblocks
        self.block_out: list[RegVals] = [bot_state] * nblocks
        self.visits = [0] * nblocks
        self.widened: set[int] = set()
        # Per-header: registers written somewhere in the loop body, and
        # the back-edge predecessors (preds inside the body).  Registers
        # *not* written in the body are loop-invariant: their header
        # in-value is the join of the entry edges alone — the back-edge
        # carries a (possibly stale) copy of that same value, and
        # joining it in could only rename or degrade an invariant
        # (e.g. two sibling inner loops renaming the outer counter to
        # two different widened cells that later collapse to MAYBE).
        self.headers: set[int] = set()
        self.loop_defs: dict[int, set[int]] = {}
        self.loop_back_preds: dict[int, set[int]] = {}
        for header, body in natural_loops(cfg):
            self.headers.add(header)
            defs = self.loop_defs.setdefault(header, set())
            for member in body:
                for pc in cfg.blocks[member].pcs():
                    dst = cfg.instructions[pc].dst
                    if dst is not None:
                        defs.add(dst)
            self.loop_back_preds.setdefault(header, set()).update(
                p for p in cfg.blocks[header].preds if p in body
            )
        self.rpo = _rpo(cfg)
        self.rpo_index = {bid: i for i, bid in enumerate(self.rpo)}

    # ------------------------------------------------------------ plumbing
    def _edge_state(self, pred: int, succ: int) -> RegVals | None:
        """Predecessor out-state refined along the (pred, succ) edge."""
        state = self.block_out[pred]
        block = self.cfg.blocks[pred]
        inst = self.cfg.instructions[block.last]
        if not inst.is_branch or inst.target is None:
            return state
        if not 0 <= inst.target < len(self.cfg.instructions):
            return state
        target_bid = self.cfg.block_of[inst.target]
        fall_pc = block.last + 1
        if fall_pc >= len(self.cfg.instructions):
            return state
        fall_bid = self.cfg.block_of[fall_pc]
        if target_bid == fall_bid:
            return state  # both edges land together: no constraint
        if succ == target_bid:
            taken = True
        elif succ == fall_bid:
            taken = False
        else:
            return state
        regs = list(state)
        if not _refine_edge(inst, taken, regs):
            return None  # infeasible edge contributes nothing
        return tuple(regs)

    def _merge_in(self, bid: int, widen: bool) -> RegVals:
        is_header = bid in self.headers
        back_preds = self.loop_back_preds.get(bid, set())
        loop_defs = self.loop_defs.get(bid, set())
        entry_cands: list[list[Value]] = [[] for _ in range(NUM_ARCH_REGS)]
        back_cands: list[list[Value]] = [[] for _ in range(NUM_ARCH_REGS)]
        if bid == self.cfg.entry_block:
            for reg in range(NUM_ARCH_REGS):
                entry_cands[reg].append(self.boundary[reg])
        for pred in self.cfg.blocks[bid].preds:
            state = self._edge_state(pred, bid)
            if state is None:
                continue
            bucket = back_cands if pred in back_preds else entry_cands
            for reg in range(NUM_ARCH_REGS):
                bucket[reg].append(state[reg])
        old = self.block_in[bid]
        merged: list[Value] = []
        for reg in range(NUM_ARCH_REGS):
            if is_header and reg in loop_defs:
                value = _header_merge(
                    entry_cands[reg] + back_cands[reg], bid, reg, True
                )
                if value[0] == "U" and value[1] == ("w", bid, reg):
                    self.widened.add(bid)
                elif value[0] == "D" and value[3] == ("w", bid, reg):
                    self.widened.add(bid)
            else:
                # Non-header, or loop-invariant at a header: for the
                # latter the back-edge value is a copy of this very
                # in-value, so the entry edges alone are the sources.
                cands = entry_cands[reg] if is_header else (
                    entry_cands[reg] + back_cands[reg]
                )
                value = BOT
                for cand in cands:
                    value = join_value(value, cand)
            if widen and (is_header or self.visits[bid] > _SOFT_VISIT_CAP):
                value = _widen_value(old[reg], value)
            merged.append(value)
        return tuple(merged)

    def _transfer_block(self, bid: int, state: RegVals) -> RegVals:
        regs = list(state)
        for pc in self.cfg.blocks[bid].pcs():
            self.transfer.apply(pc, self.cfg.instructions[pc], regs)
        return tuple(regs)

    # ------------------------------------------------------------- solving
    def solve(self) -> None:
        cap = _HARD_VISIT_FACTOR * (len(self.cfg.blocks) + 1)
        total = 0
        pending = set(self.rpo)
        work = list(self.rpo)
        while work:
            work.sort(key=lambda b: self.rpo_index.get(b, 0), reverse=True)
            bid = work.pop()
            pending.discard(bid)
            total += 1
            if total > cap:
                raise ValueAnalysisDivergence(
                    f"value fixpoint did not stabilise after {total} visits"
                )
            self.visits[bid] += 1
            new_in = self._merge_in(bid, widen=True)
            new_out = self._transfer_block(bid, new_in)
            if new_in == self.block_in[bid] and new_out == self.block_out[bid]:
                continue
            self.block_in[bid] = new_in
            self.block_out[bid] = new_out
            for succ in self.cfg.blocks[bid].succs:
                if succ not in pending:
                    pending.add(succ)
                    work.append(succ)
        # Bounded narrowing: recompute without interval widening to pull
        # branch-refined bounds (e.g. the loop guard) back in.  Starting
        # from a post-fixpoint, every sweep stays above the least
        # fixpoint, so the result remains sound.
        for _ in range(_NARROWING_SWEEPS):
            for bid in self.rpo:
                new_in = self._merge_in(bid, widen=False)
                self.block_in[bid] = new_in
                self.block_out[bid] = self._transfer_block(bid, new_in)


def _sweep(
    engine: _Engine, transfer: _Transfer, reachable: set[int]
) -> tuple[dict[int, str], dict[int, LoadClass], dict[int, Interval]]:
    """Final walk over reachable blocks: classify branches, loads, stores."""
    cfg = engine.cfg
    branch_classes: dict[int, str] = {}
    loads: dict[int, LoadClass] = {}
    stores: dict[int, Interval] = {}
    for block in cfg.blocks:
        if block.bid not in reachable:
            continue
        regs = list(engine.block_in[block.bid])
        for pc in block.pcs():
            inst = cfg.instructions[pc]
            if inst.is_load:
                lo, hi = transfer.access_address(inst, regs)
                if transfer.memory is not None:
                    lo, hi = transfer.memory.confine(lo, hi)
                identical, _iv = transfer.classify(pc, lo, hi)
                region = (
                    transfer.memory.region_at(lo)
                    if transfer.memory is not None and lo is not None
                    else None
                )
                loads[pc] = LoadClass(
                    pc, lo, hi, identical, region.name if region else None
                )
            elif inst.is_store:
                iv = transfer.access_address(inst, regs)
                if transfer.memory is not None:
                    iv = transfer.memory.confine(*iv)
                stores[pc] = iv
            elif inst.is_branch:
                branch_classes[pc] = classify_branch(inst, regs, engine.nctx)
            transfer.apply(pc, inst, regs)
    return branch_classes, loads, stores


def _reaching_stores(
    cfg: CFG, store_ivs: dict[int, Interval]
) -> dict[int, tuple[Interval, ...]]:
    """For each load pc, the store intervals with a CFG path to it.

    A store S reaches a load L when some execution runs S before L:
    S's block reaches L's block through successors, or they share a
    block and S precedes L (or the block sits on a cycle).
    """
    closure: dict[int, set[int]] = {}
    for block in cfg.blocks:
        seen: set[int] = set()
        stack = list(block.succs)
        while stack:
            bid = stack.pop()
            if bid in seen:
                continue
            seen.add(bid)
            stack.extend(cfg.blocks[bid].succs)
        closure[block.bid] = seen  # blocks strictly after; self iff on a cycle
    result: dict[int, tuple[Interval, ...]] = {}
    for block in cfg.blocks:
        for pc in block.pcs():
            if not cfg.instructions[pc].is_load:
                continue
            ivs = []
            for spc, iv in store_ivs.items():
                sbid = cfg.block_of[spc]
                if sbid == block.bid:
                    reaches = spc < pc or sbid in closure[sbid]
                else:
                    reaches = block.bid in closure[sbid]
                if reaches:
                    ivs.append(iv)
            result[pc] = tuple(ivs)
    return result


def entry_state(nctx: int, sp_divergent: bool) -> RegVals:
    """Abstract register file at program entry."""
    regs: list[Value] = [const(0)] * NUM_ARCH_REGS
    if sp_divergent and nctx > 1:
        regs[SP] = affine(ENTRY_DEF, -STACK_STRIDE, DEFAULT_STACK_TOP, nctx)
    else:
        regs[SP] = const(DEFAULT_STACK_TOP)
    return tuple(regs)


def analyze_values_cfg(
    cfg: CFG,
    nctx: int,
    *,
    sp_divergent: bool = True,
    memory: MemoryModel | None = None,
    tid_value: int | None = None,
) -> ValueAnalysis:
    """Run the value-level fixpoint over *cfg*.

    With a :class:`MemoryModel` the analysis runs two phases: a first
    fixpoint with loads unmodelled collects every store's address
    interval (the widest possible, since that phase's loads return TOP),
    and a second fixpoint classifies each load against the identical
    words of the image, counting only stores *with a CFG path to the
    load* as clobbering — a store that can never execute before a load
    cannot change what it observes.

    *tid_value* pins the TID opcode to one constant (the Limit-study
    clones all run with soft tid 0).
    """
    boundary = entry_state(nctx, sp_divergent)
    reachable = cfg.reachable()

    first = _Transfer(nctx, None, tid_value)
    engine = _Engine(cfg, nctx, boundary, first)
    engine.solve()
    _branches, _loads, store_ivs = _sweep(engine, first, reachable)

    final_transfer = first
    if memory is not None:
        # Phase 1 ran without the memory model, so its store intervals
        # are unconfined; apply the region contract before they gate
        # load classification.
        store_ivs = {
            pc: memory.confine(*iv) for pc, iv in store_ivs.items()
        }
        reaching = _reaching_stores(cfg, store_ivs)
        final_transfer = _Transfer(nctx, memory, tid_value, reaching)
        engine = _Engine(cfg, nctx, boundary, final_transfer)
        engine.solve()
    branch_classes, loads, store_ivs = _sweep(engine, final_transfer, reachable)

    return ValueAnalysis(
        cfg=cfg,
        nctx=nctx,
        block_in=engine.block_in,
        block_out=engine.block_out,
        reachable=reachable,
        branch_classes=branch_classes,
        loads=loads,
        store_intervals=store_ivs,
        widened_headers=frozenset(engine.widened),
        transfer=final_transfer,
    )
