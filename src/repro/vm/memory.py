"""Flat, byte-addressable memory with named data objects.

MOARD's whole point is associating corrupted values with *data objects*;
the memory model is therefore organised around named allocations
(:class:`DataObject`) whose address ranges are known, so that every dynamic
load/store can be resolved back to ``(object name, element index)`` when the
trace is recorded.

Addresses are plain integers in a single 64-bit address space.  Allocations
are separated by guard gaps so that an index corrupted by a bit flip lands
either inside another object (wrong data) or in a gap / unmapped space
(:class:`~repro.vm.errors.SegmentationFault`) — the same two failure modes a
native execution exhibits.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.ir.types import F32, F64, I1, I8, I16, I32, I64, IRType
from repro.vm.bits import bits_to_value, to_signed, to_unsigned, value_to_bits
from repro.vm.errors import SegmentationFault, VMError

Number = Union[int, float]

_DTYPE_BY_TYPE = {
    I1: np.int8,
    I8: np.int8,
    I16: np.int16,
    I32: np.int32,
    I64: np.int64,
    F32: np.float32,
    F64: np.float64,
}


def dtype_for(element_type: IRType) -> np.dtype:
    """NumPy dtype used to back a data object of ``element_type`` elements."""
    try:
        return np.dtype(_DTYPE_BY_TYPE[element_type])
    except KeyError:
        raise VMError(f"no storage dtype for element type {element_type}") from None


@dataclass
class DataObject:
    """A named, contiguous allocation.

    Attributes
    ----------
    name:
        Application-level name (``"colidx"``, ``"sum"``, …).  This is the key
        the aDVF analysis is parameterised by.
    element_type:
        IR type of each element.
    count:
        Number of elements.
    base:
        First byte address.
    is_stack:
        True for compiler-generated local slots (kernel locals); these are
        *not* target data objects but still participate in propagation.
    """

    name: str
    element_type: IRType
    count: int
    base: int
    is_stack: bool = False
    array: np.ndarray = field(repr=False, default=None)  # type: ignore[assignment]

    #: Copy-on-write marker (class attribute, not a dataclass field): when a
    #: :meth:`Memory.fork` shares this object's backing array with another
    #: address space, both sides are flagged and the first typed write
    #: (:meth:`set` / :meth:`fill_from`) makes a private copy.  Direct
    #: ``.array`` mutation bypasses the barrier — forked memories must only
    #: be written through the typed accessors (the VM always is).
    _cow_shared = False

    #: Bytes per element and one past the last byte address.  Computed once
    #: here because ``base``, ``count`` and ``element_type`` are never
    #: reassigned, and every load and store resolves through them.
    element_size: int = field(init=False, repr=False, compare=False)
    end: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.element_size = self.element_type.size_bytes
        self.end = self.base + self.count * self.element_size

    @property
    def size_bytes(self) -> int:
        return self.count * self.element_size

    def contains(self, address: int) -> bool:
        return self.base <= address < self.end

    def address_of(self, index: int) -> int:
        """Byte address of element ``index``."""
        if not 0 <= index < self.count:
            raise IndexError(f"{self.name}[{index}] out of range (count={self.count})")
        return self.base + index * self.element_size

    def index_of(self, address: int) -> int:
        """Element index containing byte ``address`` (must be aligned)."""
        offset = address - self.base
        if offset % self.element_size:
            raise SegmentationFault(address, f"misaligned access into {self.name}")
        return offset // self.element_size

    # ------------------------------------------------------------------ #
    # typed element access (used by Memory and by workload setup code)
    # ------------------------------------------------------------------ #
    def get(self, index: int) -> Number:
        value = self.array[index]
        if self.element_type.is_float:
            return float(value)
        return int(value)

    def set(self, index: int, value: Number) -> None:
        if self._cow_shared:
            self.array = self.array.copy()
            self._cow_shared = False
        if self.element_type.is_float:
            self.array[index] = float(value)
        else:
            self.array[index] = to_signed(int(value), max(8, self.element_type.bits))

    def cast_value(self, value: Number) -> Number:
        """The exact Python value :meth:`get` would return after
        ``set(index, value)`` — i.e. ``value`` pushed through the backing
        array's dtype (f32 rounding, integer wrapping) and back.

        The lockstep batch replay uses this to predict a store's stored
        bits without touching memory.
        """
        if self.element_type.is_float:
            return float(self.array.dtype.type(float(value)))
        return int(
            self.array.dtype.type(
                to_signed(int(value), max(8, self.element_type.bits))
            )
        )

    def values(self) -> np.ndarray:
        """A copy of the current contents as a NumPy array."""
        return self.array.copy()

    def fill_from(self, values: Sequence[Number]) -> None:
        data = np.asarray(values)
        if data.shape != (self.count,):
            raise ValueError(
                f"cannot fill {self.name} (count={self.count}) from shape {data.shape}"
            )
        if self._cow_shared:
            self.array = self.array.copy()
            self._cow_shared = False
        if self.element_type.is_float:
            self.array[:] = data.astype(self.array.dtype)
        else:
            self.array[:] = data.astype(np.int64).astype(self.array.dtype)


class Memory:
    """The VM's address space: a registry of :class:`DataObject` allocations."""

    #: Guard gap (bytes) left between consecutive allocations.
    GUARD_GAP = 256

    def __init__(self, base_address: int = 0x10000) -> None:
        self._next_address = base_address
        self._objects: Dict[str, DataObject] = {}
        #: Parallel sorted arrays for address resolution.
        self._bases: List[int] = []
        self._by_base: List[DataObject] = []
        self._stack_counter = 0

    # ------------------------------------------------------------------ #
    # allocation
    # ------------------------------------------------------------------ #
    def allocate(
        self,
        name: str,
        element_type: IRType,
        count: int,
        initial: Optional[Sequence[Number]] = None,
        is_stack: bool = False,
    ) -> DataObject:
        """Allocate ``count`` elements of ``element_type`` under ``name``."""
        if count <= 0:
            raise ValueError(f"data object {name!r} must have a positive element count")
        if name in self._objects:
            raise ValueError(f"data object {name!r} already allocated")
        base = self._next_address
        obj = DataObject(
            name=name,
            element_type=element_type,
            count=count,
            base=base,
            is_stack=is_stack,
            array=np.zeros(count, dtype=dtype_for(element_type)),
        )
        if initial is not None:
            obj.fill_from(initial)
        self._next_address = obj.end + self.GUARD_GAP
        self._objects[name] = obj
        position = bisect_left(self._bases, base)
        self._bases.insert(position, base)
        self._by_base.insert(position, obj)
        return obj

    def allocate_stack(self, hint: str, element_type: IRType, count: int) -> DataObject:
        """Allocate an anonymous local slot (kernel local variable)."""
        self._stack_counter += 1
        return self.allocate(
            f"%stack.{self._stack_counter}.{hint}", element_type, count, is_stack=True
        )

    def release(self, obj: DataObject) -> None:
        """Remove an allocation (used when a function frame is popped)."""
        if obj.name not in self._objects:
            return
        del self._objects[obj.name]
        position = bisect_left(self._bases, obj.base)
        if position < len(self._bases) and self._bases[position] == obj.base:
            self._bases.pop(position)
            self._by_base.pop(position)

    # ------------------------------------------------------------------ #
    # lookup
    # ------------------------------------------------------------------ #
    def object(self, name: str) -> DataObject:
        try:
            return self._objects[name]
        except KeyError:
            raise KeyError(f"no data object named {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._objects

    @property
    def objects(self) -> Dict[str, DataObject]:
        """Mapping of name → data object (live view, do not mutate)."""
        return self._objects

    def data_objects(self, include_stack: bool = False) -> List[DataObject]:
        """All allocations, optionally excluding compiler-generated locals."""
        return [
            obj
            for obj in self._objects.values()
            if include_stack or not obj.is_stack
        ]

    def resolve(self, address: int) -> Tuple[DataObject, int]:
        """Map a byte address to ``(object, element index)`` or fault."""
        position = bisect_right(self._bases, address) - 1
        if position < 0:
            raise SegmentationFault(address)
        obj = self._by_base[position]
        # contains() + index_of(), inlined: the bisect already gives
        # ``obj.base <= address``
        if address >= obj.end:
            raise SegmentationFault(address)
        offset = address - obj.base
        size = obj.element_size
        if offset % size:
            raise SegmentationFault(address, f"misaligned access into {obj.name}")
        return obj, offset // size

    # ------------------------------------------------------------------ #
    # typed access
    # ------------------------------------------------------------------ #
    def load(self, address: int, value_type: IRType) -> Number:
        """Load a value of ``value_type`` from ``address``."""
        obj, index = self.resolve(address)
        self._check_access_type(obj, value_type, address)
        return obj.get(index)

    def store(self, address: int, value_type: IRType, value: Number) -> None:
        """Store ``value`` (of ``value_type``) to ``address``."""
        obj, index = self.resolve(address)
        self._check_access_type(obj, value_type, address)
        obj.set(index, value)

    @staticmethod
    def _check_access_type(obj: DataObject, value_type: IRType, address: int) -> None:
        if value_type is obj.element_type:
            return
        if value_type.size_bytes != obj.element_size or (
            value_type.is_float != obj.element_type.is_float
        ):
            raise SegmentationFault(
                address,
                f"access of type {value_type} into {obj.name} "
                f"(element type {obj.element_type})",
            )

    def flip_bit_at(self, address: int, bit: int) -> Number:
        """Flip one bit of the element containing ``address``; return new value."""
        obj, index = self.resolve(address)
        raw = value_to_bits(obj.get(index), obj.element_type)
        flipped = raw ^ (1 << bit)
        new_value = bits_to_value(flipped, obj.element_type)
        obj.set(index, new_value)
        return new_value

    # ------------------------------------------------------------------ #
    # copy-on-write forks (batched replay)
    # ------------------------------------------------------------------ #
    def fork(self) -> "Memory":
        """A copy-on-write clone of the complete address space.

        The clone sees the exact current state (same objects, same base
        addresses, same allocator counters) but owns its own registry, so
        allocations and releases on either side are invisible to the other.
        Backing arrays are *shared* until written: both sides are flagged
        ``_cow_shared`` and the first typed write (``set``/``fill_from``)
        on either side copies that object's array privately.  Forking is
        therefore O(objects), not O(bytes) — the cheap divergence-window
        isolation the batched replay scheduler forks per fault.
        """
        clone = Memory.__new__(Memory)
        clone._next_address = self._next_address
        clone._stack_counter = self._stack_counter
        clone._objects = {}
        for name, obj in self._objects.items():
            obj._cow_shared = True
            twin = DataObject(
                name=obj.name,
                element_type=obj.element_type,
                count=obj.count,
                base=obj.base,
                is_stack=obj.is_stack,
                array=obj.array,
            )
            twin._cow_shared = True
            clone._objects[name] = twin
        clone._bases = list(self._bases)
        clone._by_base = [clone._objects[obj.name] for obj in self._by_base]
        return clone

    # ------------------------------------------------------------------ #
    # full-state images (engine checkpointing)
    # ------------------------------------------------------------------ #
    def capture_image(self) -> "MemoryImage":
        """Copy the complete address-space state (all objects, stack
        included, plus the allocator counters) into a standalone image."""
        return MemoryImage(
            next_address=self._next_address,
            stack_counter=self._stack_counter,
            objects=tuple(
                (
                    obj.name,
                    obj.element_type,
                    obj.count,
                    obj.base,
                    obj.is_stack,
                    obj.array.tobytes(),
                )
                for obj in self._objects.values()
            ),
        )

    def restore_image(self, image: "MemoryImage") -> None:
        """Reset the address space to ``image`` exactly.

        Objects allocated after the capture disappear; released ones come
        back; the allocator counters rewind so replayed ``alloca`` sequences
        reproduce the captured run's addresses and stack-slot names.
        """
        self._next_address = image.next_address
        self._stack_counter = image.stack_counter
        self._objects = {}
        pairs: List[Tuple[int, DataObject]] = []
        for name, element_type, count, base, is_stack, raw in image.objects:
            array = np.frombuffer(raw, dtype=dtype_for(element_type)).copy()
            obj = DataObject(
                name=name,
                element_type=element_type,
                count=count,
                base=base,
                is_stack=is_stack,
                array=array,
            )
            self._objects[name] = obj
            pairs.append((base, obj))
        pairs.sort(key=lambda pair: pair[0])
        self._bases = [base for base, _ in pairs]
        self._by_base = [obj for _, obj in pairs]

    def matches_image(self, image: "MemoryImage") -> bool:
        """Bit-exact comparison of the live state against a captured image."""
        if (
            self._next_address != image.next_address
            or self._stack_counter != image.stack_counter
            or len(self._objects) != len(image.objects)
        ):
            return False
        for name, element_type, count, base, is_stack, raw in image.objects:
            obj = self._objects.get(name)
            if (
                obj is None
                or obj.element_type != element_type
                or obj.count != count
                or obj.base != base
                or obj.is_stack != is_stack
                or obj.array.tobytes() != raw
            ):
                return False
        return True

    # ------------------------------------------------------------------ #
    # snapshots (golden-run / faulty-run comparisons)
    # ------------------------------------------------------------------ #
    def snapshot(self, names: Optional[Iterable[str]] = None) -> Dict[str, np.ndarray]:
        """Copy the contents of the named (default: all non-stack) objects."""
        selected = (
            [self.object(n) for n in names]
            if names is not None
            else self.data_objects(include_stack=False)
        )
        return {obj.name: obj.values() for obj in selected}

    def restore(self, snapshot: Dict[str, np.ndarray]) -> None:
        """Restore object contents captured by :meth:`snapshot`."""
        for name, values in snapshot.items():
            self.object(name).fill_from(values)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Memory: {len(self._objects)} objects, next={self._next_address:#x}>"


@dataclass(frozen=True)
class MemoryImage:
    """Standalone copy of a :class:`Memory`'s complete state.

    Arrays are stored as raw bytes so images are immutable, cheap to compare
    (``tobytes`` equality is a memcmp) and safe to share between the
    checkpoint schedule and concurrent replays.
    """

    next_address: int
    stack_counter: int
    #: ``(name, element_type, count, base, is_stack, raw_bytes)`` per object,
    #: in allocation (insertion) order.
    objects: Tuple[Tuple[str, IRType, int, int, bool, bytes], ...]
