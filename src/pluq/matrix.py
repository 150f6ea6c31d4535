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

from dataclasses import dataclass

import numpy as np

from .field import PrimeField

_DECIMAL_CHARS = b"0123456789 \t\r\n"


def _check_decimal_text(text: str) -> None:
    """Reject text with any character besides ASCII digits, spaces, tabs and
    line ends.  ``int()`` would also take ``+5``, ``1_0`` and non-ASCII digits;
    this is one C-level pass over the whole text instead of a check per token."""
    if not text.isascii() or text.encode("ascii").translate(None, _DECIMAL_CHARS):
        raise ValueError("expected ASCII decimal integers separated by whitespace")


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
        return {
            "field_mul": self.field_mul,
            "field_add": self.field_add,
            "field_inv": self.field_inv,
            "modular_reductions": self.modular_reductions,
        }


class DenseMatrix:
    """Row-major m x n matrix of canonical residues mod p.

    Zero dimensions are legal; an m x 0 by 0 x n product is the m x n zero
    matrix.  After a decomposition the same storage holds the packed factor
    layout [L\\U, V; M, 0].
    """

    __slots__ = ("field", "data")

    def __init__(self, field: PrimeField, data):
        self.field = field
        arr = field.asarray(data)
        if arr.ndim != 2:
            raise ValueError(f"expected a 2-d array, got ndim={arr.ndim}")
        self.data = arr

    # -- constructors ---------------------------------------------------

    @classmethod
    def zeros(cls, m: int, n: int, field: PrimeField) -> "DenseMatrix":
        return cls(field, np.zeros((m, n), dtype=field.dtype))

    @classmethod
    def identity(cls, n: int, field: PrimeField) -> "DenseMatrix":
        return cls(field, np.eye(n, dtype=field.dtype))

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
        return DenseMatrix(self.field, self.data.copy())

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
        return DenseMatrix(self.field, self.data[:k, :t].copy())

    # -- text format --------------------------------------------------------
    # Line 1: "m n p"; then m lines of n residues in [0, p).

    def to_text(self) -> str:
        lines = [f"{self.m} {self.n} {self.p}"]
        lines += [" ".join(map(str, row)) for row in self.data.astype(np.int64).tolist()]
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "DenseMatrix":
        _check_decimal_text(text)
        lines = text.splitlines()
        if not lines or not lines[0].strip():
            raise ValueError("empty matrix file")
        header = lines[0].split()
        if len(header) != 3:
            raise ValueError(f"bad matrix header {lines[0]!r}, expected 'm n p'")
        m, n, p = (int(x) for x in header)  # no sign: the character check rejects it
        field = PrimeField(p)
        body, trailing = lines[1 : 1 + m], lines[1 + m :]
        if len(body) != m or any(ln.strip() for ln in trailing):
            raise ValueError(f"expected exactly {m} rows after the header")
        rows = np.zeros((m, n), dtype=np.int64)
        for i, ln in enumerate(body):
            vals = [int(x) for x in ln.split()]
            if len(vals) != n:
                raise ValueError(f"row {i} has {len(vals)} entries, expected {n}")
            try:
                rows[i] = vals
            except OverflowError:
                raise ValueError(f"row {i} has an entry outside the int64 range") from None
        return cls(field, rows)  # asarray rejects out-of-range residues


class Permutation:
    """Bijection on {0, ..., s-1}; ``sigma`` is the index map of Mat(sigma)."""

    __slots__ = ("sigma",)

    def __init__(self, sigma):
        arr = np.asarray(sigma, dtype=np.int64)
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

    def is_identity(self) -> bool:
        return bool(np.array_equal(self.sigma, np.arange(self.size)))

    def compose(self, other: "Permutation") -> "Permutation":
        """Permutation whose matrix is Mat(self) @ Mat(other)."""
        if other.size != self.size:
            raise ValueError(f"size mismatch: {self.size} vs {other.size}")
        return Permutation._unchecked(other.sigma[self.sigma])

    def inverse(self) -> "Permutation":
        return Permutation._unchecked(_inverse_map(self.sigma))

    def to_matrix(self, field: PrimeField) -> DenseMatrix:
        """Explicit 0/1 matrix; test and oracle use only."""
        s = self.size
        mat = np.zeros((s, s), dtype=field.dtype)
        mat[np.arange(s), self.sigma] = 1
        return DenseMatrix(field, mat)

    def serialize(self) -> str:
        return " ".join(map(str, self.sigma.tolist()))

    @classmethod
    def deserialize(cls, text: str, size: int | None = None) -> "Permutation":
        _check_decimal_text(text)
        vals = [int(x) for x in text.split()]
        if size is not None and len(vals) != size:
            raise ValueError(f"expected permutation of size {size}, got {len(vals)} indices")
        try:
            return cls(np.asarray(vals, dtype=np.int64))
        except OverflowError:
            raise ValueError("permutation index outside the int64 range") from None


def perm_block_diag(perms: list[Permutation]) -> Permutation:
    """Diag(p1, ..., pk) acting on the concatenated index ranges."""
    total = sum(p.size for p in perms)
    sigma = np.empty(total, dtype=np.int64)
    off = 0
    for p in perms:
        sigma[off : off + p.size] = p.sigma + off
        off += p.size
    return Permutation._unchecked(sigma)


def _inverse_map(sigma: np.ndarray) -> np.ndarray:
    inv = np.empty_like(sigma)
    inv[sigma] = np.arange(sigma.shape[0], dtype=sigma.dtype)
    return inv


def _permute_inplace(lines: np.ndarray, tau: np.ndarray, buf: np.ndarray | None) -> None:
    # new[x] = old[tau(x)] over the rows of ``lines``, via cycle walks with one
    # line buffer; only the moved indices start a walk, indexed with Python ints.
    moved = np.flatnonzero(tau != np.arange(tau.shape[0])).tolist()
    if not moved:
        return
    width = lines.shape[1]
    if buf is None:
        buf = np.empty(width, dtype=lines.dtype)
    tmp = buf[:width]
    t = tau.tolist()
    done = set()
    for start in moved:
        if start in done:
            continue
        tmp[:] = lines[start]
        j = start
        while t[j] != start:
            lines[j] = lines[t[j]]
            done.add(j)
            j = t[j]
        lines[j] = tmp
        done.add(j)


def apply_rows(a: np.ndarray, perm: Permutation, buf: np.ndarray | None = None) -> None:
    """In place A <- Mat(perm) @ A on a (possibly strided) block view."""
    if perm.size != a.shape[0]:
        raise ValueError(f"row permutation size {perm.size} vs {a.shape[0]} rows")
    _permute_inplace(a, perm.sigma, buf)


def apply_cols(a: np.ndarray, perm: Permutation, buf: np.ndarray | None = None) -> None:
    """In place A <- A @ Mat(perm)^T on a (possibly strided) block view."""
    if perm.size != a.shape[1]:
        raise ValueError(f"column permutation size {perm.size} vs {a.shape[1]} columns")
    _permute_inplace(a.T, perm.sigma, buf)


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

    def support_pairs(self) -> list[tuple[int, int]]:
        """Pivot supports (a_t, b_t): E = Mat(P) [I_r; 0] Mat(Q) has 1 at (a_t, b_t)."""
        rows, cols = self._support_arrays()
        return list(zip(rows.tolist(), cols.tolist()))

    def _support_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The a_t and the b_t of ``support_pairs`` as two int64 arrays."""
        r = self.rank
        return _inverse_map(self.p_perm.sigma)[:r], self.q_perm.sigma[:r]

    def reconstruct(self) -> DenseMatrix:
        """Dense Mat(P) @ [L;M] @ [U V] @ Mat(Q); test/verify use."""
        field = self.packed.field
        prod = field.matmul_mod(self.extract_lm(), self.extract_uv())
        # rows: Mat(P) @ X gathers old row sigma(i); cols: X @ Mat(Q) gathers sigma^-1.
        prod = prod[self.p_perm.sigma, :]
        prod = prod[:, _inverse_map(self.q_perm.sigma)]
        return DenseMatrix(field, prod)

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
