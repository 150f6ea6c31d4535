"""Dense row-major matrices over a prime field, permutations, and factor bundles.

Permutation convention used everywhere in this package: the matrix of a
permutation sigma has ``Mat(sigma)[i, sigma(i)] = 1``.  Consequently

* ``(Mat(sigma) @ A)[i, :] == A[sigma(i), :]``, which ``apply_rows`` forms
* ``(A @ Mat(sigma))[:, j]`` is column ``sigma^-1(j)`` of ``A``
* ``(A @ Mat(sigma)^T)[:, j] == A[:, sigma(j)]``, which ``apply_cols`` forms

Blocks are addressed as numpy views into the parent storage (offset + strides),
so every block operation of the decomposition runs in place.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import cached_property

import numpy as np

from .field import PrimeField, integral_array

_DECIMAL_CHARS = b"0123456789 \t\r\n"

# Rows per multiply panel in ``kernels``; a permutation gather's temporary
# holds at most this many lines' worth of elements too, and the text writer
# formats this many rows at a time.
_PANEL_ROWS = 32

# Widest matrix with no rows a file may declare: no row bounds n, yet Q has n entries.
_MAX_EMPTY_WIDTH = 1 << 20


def _check_decimal_text(text: str) -> None:
    """Reject text with any character besides ASCII digits, spaces, tabs and
    line ends.  ``int()`` would also take ``+5``, ``1_0`` and non-ASCII digits;
    this is one C-level pass over the whole text instead of a check per token."""
    if not text.isascii() or text.encode("ascii").translate(None, _DECIMAL_CHARS):
        raise ValueError("expected ASCII decimal integers separated by whitespace")


def _parse_lines(lines: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """The integers of checked decimal ``lines`` as one int64 array, and how
    many each line holds.  The counts come from the bytes (a digit after a
    non-digit starts a token), so no line is split in Python."""
    raw = "".join(ln + "\n" for ln in lines).encode("ascii")
    chars = np.frombuffer(raw, dtype=np.uint8)
    digit = chars > ord(" ")  # digits are the only checked characters above the space
    starts = digit.copy()
    starts[1:] &= ~digit[:-1]
    line_ends = np.flatnonzero(chars == ord("\n"))
    per_line = np.add.reduceat(starts, np.r_[0, line_ends + 1][:-1], dtype=np.int64)
    total = int(per_line.sum())
    values = np.fromstring(raw, sep=" ", dtype=np.int64) if total else np.zeros(0, np.int64)
    if values.size != total:
        raise ValueError(f"read {values.size} integers from {total} tokens")
    if total and values.max() == np.iinfo(np.int64).max:  # where the parse saturates
        raise ValueError("an integer is outside the int64 range")
    return values, per_line


# Each of 0..999 as its three ASCII digits and a space, little-endian in one
# word: one lookup writes a base-1000 group and the byte after it.
_DIGIT_GROUPS = np.array([int.from_bytes(b"%03d " % g, "little") for g in range(1000)], dtype="<u4")


def _decimal_rows(values: np.ndarray, bound: int) -> str:
    """The rows of a 2-D array of integers in [0, bound], bound < 2**32, as
    ASCII decimal: a space after each entry, a line end instead after a row's
    last.  Works on _PANEL_ROWS rows at a time.  Each entry is written as
    base-1000 groups of four bytes (three digits and a space), and one mask
    chosen by its digit count keeps its digits and its last space."""
    m, n = values.shape
    if not n:
        return "\n" * m
    digits = len(str(bound))
    groups = -(-digits // 3)
    # keep[d]: the bytes written for a d-digit entry, its last d digits (byte j
    # holds digit j - j // 4 of 3 * groups, or a space where j % 4 == 3) and
    # the space after its last group
    j = np.arange(4 * groups)
    keep = (j % 4 != 3) & (j - j // 4 >= 3 * groups - np.arange(digits + 1)[:, None])
    keep[:, -1] = True
    pieces = []
    for r0 in range(0, m, _PANEL_ROWS):
        vals = values[r0 : r0 + _PANEL_ROWS].astype(np.uint32)
        ndigits = np.ones(vals.shape, dtype=np.uint8)
        for k in range(1, digits):
            ndigits += vals >= 10**k
        words = np.empty(vals.shape + (groups,), dtype="<u4")
        for g in range(groups - 1, 0, -1):
            vals, low = np.divmod(vals, 1000)
            words[..., g] = _DIGIT_GROUPS.take(low)
        words[..., 0] = _DIGIT_GROUPS.take(vals)  # raises for an entry above the bound
        text = words.view(np.uint8).reshape(vals.shape + (4 * groups,))
        text[:, -1, -1] = ord("\n")
        pieces.append(str(text[keep.take(ndigits, axis=0)], "ascii"))
    return "".join(pieces)


@dataclass
class OpCounts:
    """Tallies of field operations and modeled modular reductions.

    The charging unit: one multiply-accumulate ``c -= a*b`` is one
    ``field_mul`` plus one ``field_add``, a scaling by a pivot's inverse is one
    ``field_mul``, and inverting a pivot is one ``field_inv``.
    ``total_field_ops()`` is the paper's "field operations", the unit of its
    (2/3)n^3 leading constant.
    """

    field_mul: int = 0
    field_add: int = 0
    field_inv: int = 0
    modular_reductions: int = 0

    def total_field_ops(self) -> int:
        return self.field_mul + self.field_add + self.field_inv

    def as_dict(self) -> dict:
        return asdict(self)


class DenseMatrix:
    """Row-major m x n matrix of canonical residues mod p.

    Zero dimensions are legal; an m x 0 by 0 x n product is the m x n zero
    matrix.  After a decomposition the same storage holds the packed factor
    layout [L\\U, V; M, 0].  A float64 array passed as ``data`` is that
    storage, shared and not copied, so ``pluq()`` overwrites the caller's
    array; any other dtype or a nested list is converted into a new array.
    """

    __slots__ = ("field", "data")

    def __init__(self, field: PrimeField, data):
        self.field = field
        arr = field.asarray(data)
        if arr.ndim != 2:
            raise ValueError(f"expected a 2-d array, got ndim={arr.ndim}")
        self.data = arr

    @classmethod
    def _unchecked(cls, field: PrimeField, data: np.ndarray) -> "DenseMatrix":
        """Wrap canonical float64 residues the package made; ``__init__`` checks outside data."""
        mat = object.__new__(cls)
        mat.field, mat.data = field, data
        return mat

    # -- basics -----------------------------------------------------------

    @property
    def m(self) -> int:
        return self.data.shape[0]

    @property
    def n(self) -> int:
        return self.data.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape

    @property
    def p(self) -> int:
        return self.field.p

    def copy(self) -> "DenseMatrix":
        return DenseMatrix._unchecked(self.field, self.data.copy())

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, DenseMatrix)
            and other.p == self.p
            and other.shape == self.shape
            and bool(np.array_equal(other.data, self.data))
        )

    def __repr__(self) -> str:
        return f"DenseMatrix({self.m}x{self.n} mod {self.p})"

    def leading_submatrix(self, k: int, t: int) -> "DenseMatrix":
        """Copy of the leading k x t block (oracle-side use)."""
        if not (0 <= k <= self.m and 0 <= t <= self.n):
            raise ValueError(f"leading block ({k},{t}) out of range for {self.m}x{self.n}")
        return DenseMatrix._unchecked(self.field, self.data[:k, :t].copy())

    # -- text format --------------------------------------------------------
    # Line 1: "m n p"; then m lines of n residues in [0, p).

    def to_text(self) -> str:
        return f"{self.m} {self.n} {self.p}\n" + _decimal_rows(self.data, self.p - 1)

    @classmethod
    def from_text(cls, text: str) -> "DenseMatrix":
        _check_decimal_text(text)
        lines = text.split("\n")
        if not lines[0].strip():
            raise ValueError("empty matrix file")
        header = lines[0].split()
        if len(header) != 3:
            raise ValueError(f"bad matrix header {lines[0]!r}, expected 'm n p'")
        m, n, p = (int(x) for x in header)  # no sign: the character check rejects it
        if m == 0 and n > _MAX_EMPTY_WIDTH:
            raise ValueError(f"a matrix with no rows may have at most {_MAX_EMPTY_WIDTH} columns, got {n}")
        field = PrimeField(p)
        body, trailing = lines[1 : 1 + m], lines[1 + m :]
        if len(body) != m or any(ln.strip() for ln in trailing):
            raise ValueError(f"expected exactly {m} rows after the header")
        values, per_line = _parse_lines(body)
        bad = np.flatnonzero(per_line != n)
        if bad.size:
            i = int(bad[0])
            raise ValueError(f"row {i} has {per_line[i]} entries, expected {n}")
        return cls(field, values.reshape(m, n))  # asarray rejects out-of-range residues


class Permutation:
    """Bijection on {0, ..., s-1}; ``sigma`` is the index map of Mat(sigma)."""

    __slots__ = ("sigma",)

    def __init__(self, sigma):
        arr = integral_array(sigma).astype(np.int64, copy=False)
        if arr.ndim != 1:
            raise ValueError("permutation map must be 1-d")
        s = arr.shape[0]
        if s:
            if arr.min() < 0 or arr.max() >= s or np.bincount(arr, minlength=s).max() != 1:
                raise ValueError("not a bijection on {0,...,s-1}")
        self.sigma = arr

    @classmethod
    def _unchecked(cls, sigma: np.ndarray) -> "Permutation":
        """Wrap an int64 map that is a bijection by construction, skipping the
        check of ``__init__``, which is for maps from outside the package."""
        perm = object.__new__(cls)
        perm.sigma = sigma
        return perm

    @property
    def size(self) -> int:
        return self.sigma.shape[0]

    @classmethod
    def identity(cls, s: int) -> "Permutation":
        return cls._unchecked(np.arange(s, dtype=np.int64))

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and bool(np.array_equal(other.sigma, self.sigma))

    def __repr__(self) -> str:
        return f"Permutation({self.sigma.tolist()})"

    def compose(self, other: "Permutation") -> "Permutation":
        """Permutation whose matrix is Mat(self) @ Mat(other)."""
        if other.size != self.size:
            raise ValueError(f"size mismatch: {self.size} vs {other.size}")
        return Permutation._unchecked(other.sigma[self.sigma])

    def inverse(self) -> "Permutation":
        return Permutation._unchecked(_inverse_map(self.sigma))

    def serialize(self) -> str:
        return _decimal_rows(self.sigma[None, :], self.size - 1)[:-1]

    @classmethod
    def deserialize(cls, text: str, size: int | None = None) -> "Permutation":
        _check_decimal_text(text)
        vals = _parse_lines([text])[0]
        if size is not None and vals.size != size:
            raise ValueError(f"expected permutation of size {size}, got {vals.size} indices")
        return cls(vals)


def perm_block_diag(perms: list[Permutation]) -> Permutation:
    """Diag(p1, ..., pk) acting on the concatenated index ranges."""
    off, parts = 0, [np.empty(0, dtype=np.int64)]
    for p in perms:
        parts.append(p.sigma + off)
        off += p.size
    return Permutation._unchecked(np.concatenate(parts))


def _inverse_map(sigma: np.ndarray) -> np.ndarray:
    inv = np.empty_like(sigma)
    inv[sigma] = np.arange(sigma.shape[0], dtype=sigma.dtype)
    return inv


def _permute_inplace(lines: np.ndarray, tau: np.ndarray) -> None:
    # new[x] = old[tau(x)] over the rows of ``lines``: gather the moved span
    # [lo, hi) in chunks of the other axis, so the temporary holds at most
    # _PANEL_ROWS * lines.shape[0] elements, as a multiply panel does.
    moved = (tau != np.arange(tau.shape[0])).nonzero()[0]
    if not moved.size:
        return
    lo, hi = int(moved[0]), int(moved[-1]) + 1
    src = tau[lo:hi]
    step = _PANEL_ROWS * lines.shape[0] // (hi - lo)
    for c0 in range(0, lines.shape[1], step):
        lines[lo:hi, c0 : c0 + step] = lines[src, c0 : c0 + step]


def apply_rows(a: np.ndarray, perm: Permutation) -> None:
    """In place A <- Mat(perm) @ A on a (possibly strided) block view."""
    if perm.size != a.shape[0]:
        raise ValueError(f"row permutation size {perm.size} vs {a.shape[0]} rows")
    _permute_inplace(a, perm.sigma)


def apply_cols(a: np.ndarray, perm: Permutation) -> None:
    """In place A <- A @ Mat(perm)^T on a (possibly strided) block view."""
    if perm.size != a.shape[1]:
        raise ValueError(f"column permutation size {perm.size} vs {a.shape[1]} columns")
    _permute_inplace(a.T, perm.sigma)


@dataclass
class PluqFactors:
    """Complete PLUQ output: Mat(P) @ [L; M] @ [U V] @ Mat(Q) == A.

    ``packed`` is the input storage overwritten with [L\\U, V; M, 0]: L is
    r x r unit lower triangular (unit diagonal implicit), U is r x r upper
    triangular with nonzero diagonal.
    """

    p_perm: Permutation
    q_perm: Permutation
    rank: int
    packed: DenseMatrix

    @property
    def m(self) -> int:
        return self.packed.m

    @property
    def n(self) -> int:
        return self.packed.n

    def extract_lm(self) -> np.ndarray:
        """Dense m x r [L; M] with the implicit unit diagonal filled in."""
        r = self.rank
        lm = np.tril(self.packed.data[:, :r], -1)
        lm[np.arange(r), np.arange(r)] = 1
        return lm

    def extract_uv(self) -> np.ndarray:
        """Dense r x n [U V]."""
        r = self.rank
        uv = self.packed.data[:r, :].copy()
        uv[:, :r] = np.triu(uv[:, :r])
        return uv

    @cached_property
    def supports(self) -> tuple[np.ndarray, np.ndarray]:
        """Pivot supports (a_t, b_t), two int64 arrays: E = Mat(P) [I_r; 0] Mat(Q) has 1
        at (a_t, b_t).  Formed on first use; the permutations must not change after."""
        r = self.rank
        return _inverse_map(self.p_perm.sigma)[:r], self.q_perm.sigma[:r]

    @cached_property
    def _support_index(self) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
        """The supports sorted by row, then sorted by column.  Each side is
        (keys ascending, each pivot's index on the other side, keys as an
        object array of Python ints), so a leading-block query is a binary
        search and a masked prefix.  Formed on first use; the permutations
        must not change after."""
        rows, cols = self.supports

        def side(keys: np.ndarray, partners: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
            order = np.argsort(keys)
            sorted_keys = keys[order]
            # The keys as Python ints, made once, so that an answer selects
            # objects and creates none.  Against masking and sorting every
            # support per query (in-process pairs, 2 vCPUs), the query p99
            # read 0.55-0.73 of it with these, 0.80-0.94 with tolist() on the
            # int64 keys.
            return sorted_keys, partners[order], sorted_keys.astype(object)

        return side(rows, cols), side(cols, rows)

    def reconstruct(self) -> DenseMatrix:
        """Dense Mat(P) @ [L;M] @ [U V] @ Mat(Q); test/verify use."""
        field = self.packed.field
        prod = field.matmul_mod(self.extract_lm(), self.extract_uv())
        # rows: Mat(P) @ X gathers old row sigma(i); cols: X @ Mat(Q) gathers sigma^-1.
        prod = prod[self.p_perm.sigma, :]
        prod = prod[:, _inverse_map(self.q_perm.sigma)]
        return DenseMatrix._unchecked(field, prod)

    def check_structure(self) -> list[str]:
        """List of violated packed-layout invariants (empty when healthy)."""
        problems = []
        r, m, n = self.rank, self.m, self.n
        if not (0 <= r <= min(m, n)):
            problems.append(f"rank {r} out of range for {m}x{n}")
            return problems
        data = self.packed.data
        if r and np.any(data[np.arange(r), np.arange(r)] == 0):
            problems.append("U has a zero diagonal entry")
        if np.any(data[r:, r:] != 0):
            problems.append("trailing block below/right of the factors is not zero")
        return problems

    # -- factor file format ---------------------------------------------
    # Line 1: "m n p r"; line 2: m row indices of P; line 3: n column
    # indices of Q; then the packed matrix in the standard text format.

    def to_text(self) -> str:
        head = f"{self.m} {self.n} {self.packed.p} {self.rank}"
        return "\n".join([head, self.p_perm.serialize(), self.q_perm.serialize(), self.packed.to_text()])

    @classmethod
    def from_text(cls, text: str) -> "PluqFactors":
        # split at "\n" only, so every other character reaches exactly one of
        # the checking parsers below
        lines = text.split("\n", 3)
        if len(lines) < 4:
            raise ValueError("truncated factor file")
        head, p_line, q_line, body = lines
        _check_decimal_text(head)
        header = head.split()
        if len(header) != 4:
            raise ValueError(f"bad factor header {head!r}, expected 'm n p r'")
        m, n, p, r = (int(x) for x in header)
        p_perm = Permutation.deserialize(p_line, size=m)
        q_perm = Permutation.deserialize(q_line, size=n)
        packed = DenseMatrix.from_text(body)
        if packed.shape != (m, n) or packed.p != p:
            raise ValueError("factor header disagrees with the packed matrix header")
        if not 0 <= r <= min(m, n):
            raise ValueError(f"rank {r} out of range")
        return cls(p_perm, q_perm, r, packed)
