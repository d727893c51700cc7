"""Cache geometry: mapping addresses to (tag, set index, block offset).

Every structure in this library that deals with addresses — caches, the
Miss Classification Table, assist buffers, prefetchers — shares a single
:class:`CacheGeometry` so that tag/index arithmetic is defined exactly once.

Addresses are plain non-negative Python integers (byte addresses).  The
paper's machine uses 64-byte lines throughout; that is the default here,
but any power-of-two line size works.
"""

from __future__ import annotations

from dataclasses import dataclass, field


def _is_pow2(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


def _log2(n: int) -> int:
    return n.bit_length() - 1


@dataclass(frozen=True)
class CacheGeometry:
    """Size/associativity/line-size triple with derived address arithmetic.

    Parameters
    ----------
    size:
        Total data capacity in bytes (e.g. ``16 * 1024``).
    assoc:
        Associativity (number of ways).  ``1`` means direct-mapped.
    line_size:
        Cache line (block) size in bytes.

    All three must be powers of two, and ``size`` must be divisible by
    ``assoc * line_size``.

    Examples
    --------
    >>> g = CacheGeometry(size=16 * 1024, assoc=1, line_size=64)
    >>> g.num_sets
    256
    >>> g.set_index(0x1234_5678)
    345
    >>> g.tag(0x1234_5678)
    4660
    """

    size: int
    assoc: int = 1
    line_size: int = 64

    num_sets: int = field(init=False)
    offset_bits: int = field(init=False)
    index_bits: int = field(init=False)

    def __post_init__(self) -> None:
        if not _is_pow2(self.size):
            raise ValueError(f"cache size must be a power of two, got {self.size}")
        if not _is_pow2(self.line_size):
            raise ValueError(
                f"line size must be a power of two, got {self.line_size}"
            )
        if not _is_pow2(self.assoc):
            raise ValueError(f"associativity must be a power of two, got {self.assoc}")
        lines = self.size // self.line_size
        if lines * self.line_size != self.size:
            raise ValueError("cache size must be a multiple of line size")
        if lines % self.assoc != 0:
            raise ValueError(
                f"size/line_size ({lines}) not divisible by assoc ({self.assoc})"
            )
        object.__setattr__(self, "num_sets", lines // self.assoc)
        object.__setattr__(self, "offset_bits", _log2(self.line_size))
        object.__setattr__(self, "index_bits", _log2(self.num_sets))

    # ------------------------------------------------------------------
    # Address arithmetic
    # ------------------------------------------------------------------
    @property
    def num_lines(self) -> int:
        """Total number of cache lines (``num_sets * assoc``)."""
        return self.num_sets * self.assoc

    def block_address(self, addr: int) -> int:
        """The line-aligned address containing ``addr``."""
        return addr & ~(self.line_size - 1)

    def block_number(self, addr: int) -> int:
        """The line index of ``addr`` in a flat line-granular address space."""
        return addr >> self.offset_bits

    def set_index(self, addr: int) -> int:
        """Which cache set ``addr`` maps to."""
        return (addr >> self.offset_bits) & (self.num_sets - 1)

    def tag(self, addr: int) -> int:
        """The tag (everything above offset+index bits) of ``addr``."""
        return addr >> (self.offset_bits + self.index_bits)

    def split(self, addr: int) -> "AddressParts":
        """Decompose ``addr`` into (tag, set index, offset)."""
        return AddressParts(
            tag=self.tag(addr),
            index=self.set_index(addr),
            offset=addr & (self.line_size - 1),
        )

    def compose(self, tag: int, index: int, offset: int = 0) -> int:
        """Inverse of :meth:`split` — rebuild a byte address."""
        if not 0 <= index < self.num_sets:
            raise ValueError(f"set index {index} out of range [0, {self.num_sets})")
        if not 0 <= offset < self.line_size:
            raise ValueError(f"offset {offset} out of range [0, {self.line_size})")
        return (
            (tag << (self.offset_bits + self.index_bits))
            | (index << self.offset_bits)
            | offset
        )

    def next_line(self, addr: int) -> int:
        """The line-aligned address of the line after the one holding ``addr``.

        This is the address a next-line prefetcher fetches on a miss to
        ``addr`` (Section 5.2 of the paper).
        """
        return self.block_address(addr) + self.line_size

    def with_assoc(self, assoc: int) -> "CacheGeometry":
        """Same capacity and line size, different associativity."""
        return CacheGeometry(size=self.size, assoc=assoc, line_size=self.line_size)

    def describe(self) -> str:
        """Human-readable one-liner, e.g. ``16KB 2-way, 64B lines``."""
        if self.size % 1024 == 0:
            size_s = f"{self.size // 1024}KB"
        else:
            size_s = f"{self.size}B"
        way_s = "DM" if self.assoc == 1 else f"{self.assoc}-way"
        return f"{size_s} {way_s}, {self.line_size}B lines"


@dataclass(frozen=True)
class AddressParts:
    """A decomposed byte address: ``tag | index | offset``."""

    tag: int
    index: int
    offset: int
