"""Per-node Pangea data files and meta files.

Beyond the paper's layout (per-drive physical files, round-robin page
placement), this layer carries the robustness machinery a production
storage manager needs:

* a page image is the bytes :func:`encode_image` makes of the records at
  write time, stored with an end-to-end checksum in its meta-file entry;
  :meth:`SetFile.read_page` verifies it and raises
  :class:`~repro.sim.faults.PageCorruptionError` on mismatch;
* transient disk faults (injected through the
  :class:`~repro.sim.devices.DiskArray` fault hook) are absorbed by a
  bounded retry-with-backoff loop that charges simulated time;
* dropped page extents are recycled through per-disk free lists so
  long-lived transient sets do not grow their disk offsets unboundedly.
"""

from __future__ import annotations

import copyreg
import hashlib
import io
import pickle
import typing
from dataclasses import dataclass, replace

import numpy as np

from repro.sim.clock import charge
from repro.sim.devices import DiskArray
from repro.sim.faults import PageCorruptionError, RetryPolicy, TransientDiskError

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cluster.node import WorkerNode


def rebuild_array(dtype: str, shape: tuple, data: bytes) -> np.ndarray:
    """Decode one array of a page image: a read-only view of ``data``."""
    return np.frombuffer(data, dtype).reshape(shape)


#: ``id(dtype)`` -> ``(dtype, dtype.str as ASCII bytes)`` for each builtin,
#: object-free dtype :func:`_reduce_array` has encoded.  Keyed by identity,
#: not by the dtype: a dtype with metadata compares and hashes equal to its
#: builtin twin but must keep numpy's reduce.  Holding the dtype keeps its
#: id from being reused.  Numpy reports ``isbuiltin == 1`` only for its own
#: per-type descriptor objects, so this holds one entry per builtin type.
_DTYPE_CODES: dict = {}


def _reduce_array(array: np.ndarray):
    """Encode a plain ndarray as its dtype string, shape and C-order bytes.

    Object dtypes and dtypes that are not builtin (structured, with
    metadata, non-native byte order, datetime, string, void) keep numpy's
    own reduce, which is exact for them too.
    """
    dtype = array.dtype
    entry = _DTYPE_CODES.get(id(dtype))
    if entry is None:
        if dtype.hasobject or dtype.isbuiltin != 1:
            return array.__reduce_ex__(5)
        entry = _DTYPE_CODES[id(dtype)] = (dtype, dtype.str.encode("ascii"))
    # A fresh string per array, as ``dtype.str`` gives: the pickler memoizes
    # by identity, so a shared one would turn repeats into memo references
    # and change the encoding.
    return rebuild_array, (entry[1].decode("ascii"), array.shape, array.tobytes())


class _ImagePickler(pickle.Pickler):
    """Pickles page images; only exact ``numpy.ndarray`` objects differ
    from ``pickle.dumps`` (subclasses are not in the table)."""

    dispatch_table = {**copyreg.dispatch_table, np.ndarray: _reduce_array}


def encode_image(records: list) -> bytes:
    """The page image of a payload: the bytes a :class:`SetFile` stores
    and :func:`page_checksum` hashes; ``pickle.loads`` decodes it.

    One ``pickle`` (protocol 5) pass, exact for every record: a plain
    numpy array is encoded as its dtype string, shape and raw C-order
    bytes (so C- and Fortran-order copies and views of equal content
    encode equal) and decodes as a read-only view of the image; arrays
    with an object or non-builtin dtype (structured, with metadata,
    non-native byte order, datetime, string, void) and ndarray subclasses
    keep numpy's own pickle, as does every other record type.  The bytes
    are the same in every process for the record types pages hold (dicts,
    lists, tuples, strings, numbers, arrays), not for a ``set`` record,
    whose order follows the per-process string hash.

    Records must be picklable; an unpicklable payload raises
    :class:`TypeError`.
    """
    encoded = io.BytesIO()
    try:
        _ImagePickler(encoded, protocol=5).dump(records)
    except (pickle.PicklingError, TypeError, AttributeError) as exc:
        raise TypeError(f"page records must be picklable: {exc}") from exc
    return encoded.getvalue()


def page_checksum(image: bytes) -> int:
    """64-bit checksum of a page image (see :func:`encode_image`): its
    bytes hashed with BLAKE2b cut to 8 bytes.

    Every write and every verify hashes through this function.
    """
    return int.from_bytes(hashlib.blake2b(image, digest_size=8).digest(), "little")


@dataclass(frozen=True)
class PageLocation:
    """One meta-file entry: where a page image lives on this node's disks.

    ``nbytes`` is the logical image size; ``extent_bytes`` is the size of
    the disk extent backing it (>= ``nbytes`` when a recycled extent was
    larger than the image).  ``checksum`` is verified on every read.
    """

    page_id: int
    disk_index: int
    offset: int
    nbytes: int
    checksum: int = 0
    extent_bytes: int = 0

    @property
    def allocated_bytes(self) -> int:
        return self.extent_bytes or self.nbytes


class SetFile:
    """The on-disk image of one locality set on one node.

    Pages are assigned to disk drives round-robin (each page's image is
    contiguous on one drive, per the paper's per-drive physical files); the
    *cost* of a transfer is charged through the striped
    :class:`~repro.sim.devices.DiskArray`, which models the aggregate
    bandwidth concurrent workers get from multiple drives.

    Unlike DBMIN's files, a locality set may have only a fraction (or none)
    of its pages on disk: transient sets only write images for pages that
    were actually spilled.
    """

    def __init__(
        self,
        set_name: str,
        disks: DiskArray,
        owner: "WorkerNode | None" = None,
    ) -> None:
        self.set_name = set_name
        self.disks = disks
        #: The worker node this file lives on (None for standalone use);
        #: gives access to the node's retry policy, robustness counters,
        #: and fault injector.
        self.owner = owner
        self._images: dict[int, bytes] = {}
        self._meta: dict[int, PageLocation] = {}
        self._next_disk = 0
        self._disk_heads = [0] * disks.num_disks
        #: Per-disk free extents ``(offset, size)`` from dropped pages,
        #: reused before the disk head is advanced.
        self._free_extents: list[list[tuple[int, int]]] = [
            [] for _ in range(disks.num_disks)
        ]

    # ------------------------------------------------------------------
    # retry plumbing
    # ------------------------------------------------------------------

    def _retry_policy(self) -> RetryPolicy:
        if self.owner is not None and self.owner.retry_policy is not None:
            return self.owner.retry_policy
        return RetryPolicy()

    def _with_retries(self, op) -> float:
        """Run one disk operation, absorbing transient faults.

        Each failed attempt charges exponential backoff to the disk clock;
        the bound comes from the owning node's :class:`RetryPolicy`.  The
        returned cost includes the backoff seconds.
        """
        policy = self._retry_policy()
        attempt = 0
        backoff_total = 0.0
        while True:
            try:
                return op() + backoff_total
            except TransientDiskError:
                attempt += 1
                if attempt >= policy.max_attempts:
                    raise
                if self.owner is not None:
                    self.owner.robustness.retries += 1
                backoff_total += charge(
                    self.disks.disks[0].clock, policy.backoff(attempt - 1)
                )

    # ------------------------------------------------------------------
    # extent management
    # ------------------------------------------------------------------

    def _allocate_extent(self, nbytes: int) -> tuple[int, int, int]:
        """Pick (disk_index, offset, extent_bytes), reusing freed extents."""
        disk_index = self._next_disk
        self._next_disk = (self._next_disk + 1) % self.disks.num_disks
        free = self._free_extents[disk_index]
        for i, (offset, size) in enumerate(free):
            if size >= nbytes:
                free.pop(i)
                leftover = size - nbytes
                if leftover > 0:
                    free.append((offset + nbytes, leftover))
                return disk_index, offset, nbytes
        offset = self._disk_heads[disk_index]
        self._disk_heads[disk_index] += nbytes
        return disk_index, offset, nbytes

    def _release_extent(self, location: PageLocation) -> None:
        disk_index = location.disk_index
        extent = location.allocated_bytes
        if location.offset + extent == self._disk_heads[disk_index]:
            # The extent sits at the top of the allocated region: give the
            # space straight back to the disk head.
            self._disk_heads[disk_index] = location.offset
            return
        self._free_extents[disk_index].append((location.offset, extent))

    def assert_extent_accounting(self) -> None:
        """Verify disk-space accounting: every byte below each disk head is
        covered by exactly one live or free extent, with no overlaps."""
        for disk_index in range(self.disks.num_disks):
            spans = [
                (loc.offset, loc.allocated_bytes, f"page {loc.page_id}")
                for loc in self._meta.values()
                if loc.disk_index == disk_index
            ]
            spans.extend(
                (offset, size, "free")
                for offset, size in self._free_extents[disk_index]
            )
            spans.sort()
            covered = 0
            for (o1, s1, w1), (o2, _s2, w2) in zip(spans, spans[1:]):
                if o1 + s1 > o2:
                    raise AssertionError(
                        f"set {self.set_name!r} disk {disk_index}: extents "
                        f"{w1} and {w2} overlap ([{o1}, {o1 + s1}) vs {o2})"
                    )
            covered = sum(s for _o, s, _w in spans)
            head = self._disk_heads[disk_index]
            if covered != head:
                raise AssertionError(
                    f"set {self.set_name!r} disk {disk_index}: extents cover "
                    f"{covered} bytes but the disk head is at {head}"
                )

    # ------------------------------------------------------------------
    # data-file operations (all charge simulated disk time)
    # ------------------------------------------------------------------

    def _store_image(self, page_id: int, image: bytes, nbytes: int) -> None:
        """Checksum one page image, place its extent and record it in the
        meta file (the write's bookkeeping; the disk charge is the caller's)."""
        checksum = page_checksum(image)
        existing = self._meta.get(page_id)
        if existing is not None and existing.allocated_bytes >= nbytes:
            location = replace(
                existing,
                nbytes=nbytes,
                checksum=checksum,
                extent_bytes=existing.allocated_bytes,
            )
        else:
            if existing is not None:
                self._release_extent(existing)
            disk_index, offset, extent = self._allocate_extent(nbytes)
            location = PageLocation(
                page_id=page_id,
                disk_index=disk_index,
                offset=offset,
                nbytes=nbytes,
                checksum=checksum,
                extent_bytes=extent,
            )
        self._meta[page_id] = location
        self._images[page_id] = image

    def _draw_corruptions(self, page_ids: "typing.Iterable[int]") -> None:
        """Let the node's fault injector corrupt the images just written."""
        if self.owner is not None and self.owner.fault_injector is not None:
            for page_id in page_ids:
                if self.owner.fault_injector.should_corrupt(
                    self.set_name, self.owner, page_id
                ):
                    self.corrupt_image(page_id)

    def write_page(self, page_id: int, records: list, nbytes: int) -> float:
        """Persist one page image: :meth:`write_many` of one entry."""
        return self.write_many([(page_id, records, nbytes)])

    def write_many(self, entries: "list[tuple[int, list, int]]") -> float:
        """Persist page images with one disk transfer; returns the simulated
        seconds charged.

        ``entries`` is a list of ``(page_id, records, nbytes)`` triples.
        Each payload is encoded once by :func:`encode_image`; the file
        stores those bytes and their checksum in the meta file, so
        corruption of the stored image (injected or modeled) is detected
        end-to-end on the next read.  Every payload is encoded before any
        is stored, so a payload that cannot be encoded raises before the
        meta file or any extent is touched.
        The images go out as one striped sequential write (one seek) via
        :meth:`DiskArray.write_many <repro.sim.devices.DiskArray.write_many>`;
        for one image that charges exactly what :meth:`DiskArray.write
        <repro.sim.devices.DiskArray.write>` would.  An empty batch charges
        nothing.
        """
        if not entries:
            return 0.0
        images = [encode_image(records) for _page_id, records, _nbytes in entries]
        for (page_id, _records, nbytes), image in zip(entries, images):
            self._store_image(page_id, image, nbytes)
        sizes = [nbytes for _page_id, _records, nbytes in entries]
        cost = self._with_retries(lambda: self.disks.write_many(sizes))
        self._draw_corruptions(page_id for page_id, _records, _nbytes in entries)
        return cost

    def read_page(self, page_id: int) -> tuple[list, float]:
        """Load, verify and decode one page image; returns (records, seconds).

        Raises :class:`PageCorruptionError` when the stored image fails its
        checksum — the buffer layer's read-repair path catches this and
        restores the page from a surviving replica.
        """
        image = self._image(page_id)
        location = self._meta[page_id]
        cost = self._with_retries(
            lambda: self.disks.read(location.nbytes, num_ios=1)
        )
        if not self.image_intact(page_id):
            if self.owner is not None:
                self.owner.robustness.corruptions_detected += 1
            where = (
                f" on node {self.owner.node_id}" if self.owner is not None else ""
            )
            raise PageCorruptionError(
                f"checksum mismatch for page {page_id} of set "
                f"{self.set_name!r}{where}: the on-disk image is corrupt"
            )
        return pickle.loads(image), cost

    def image_intact(self, page_id: int) -> bool:
        """Whether the stored image still matches its meta-file checksum.

        A metadata-side check: no I/O is charged and no counter moves.
        """
        return page_checksum(self._images[page_id]) == self._meta[page_id].checksum

    def peek_records(self, page_id: int) -> list:
        """Records of one on-disk page image, read metadata-side.

        This is the public accessor the recovery and safety layers use to
        consult a shard's object index without charging data I/O (the
        manager already holds this metadata).  It never fails: a missing
        image, or one that fails its checksum (and so is not decoded),
        yields ``[]``.
        """
        if page_id not in self._images or not self.image_intact(page_id):
            return []
        return pickle.loads(self._images[page_id])

    def corrupt_image(self, page_id: int) -> None:
        """Flip one bit of the stored image of one page (fault injection only).

        The bit's position is the page's meta-file checksum modulo the
        image's length in bits; the checksum is left as it was, so the next
        :meth:`read_page` detects the damage.  An image that already fails
        its checksum is left as it is (a second flip of one bit mends it).
        """
        image = self._image(page_id)
        if not self.image_intact(page_id):
            return
        bit = self._meta[page_id].checksum % (8 * len(image))
        flipped = int.from_bytes(image, "little") ^ (1 << bit)
        self._images[page_id] = flipped.to_bytes(len(image), "little")

    def _image(self, page_id: int) -> bytes:
        image = self._images.get(page_id)
        if image is None:
            raise KeyError(
                f"set {self.set_name!r} has no on-disk image for page {page_id}"
            )
        return image

    def contains(self, page_id: int) -> bool:
        return page_id in self._images

    def location(self, page_id: int) -> PageLocation:
        """Meta-file lookup (no data transfer)."""
        return self._meta[page_id]

    def drop_page(self, page_id: int) -> None:
        self._images.pop(page_id, None)
        location = self._meta.pop(page_id, None)
        if location is not None:
            self._release_extent(location)

    def truncate(self) -> None:
        """Remove all page images (set deletion is a metadata operation)."""
        self._images.clear()
        self._meta.clear()
        self._disk_heads = [0] * self.disks.num_disks
        self._free_extents = [[] for _ in range(self.disks.num_disks)]

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    @property
    def num_pages(self) -> int:
        return len(self._images)

    @property
    def bytes_on_disk(self) -> int:
        return sum(loc.nbytes for loc in self._meta.values())

    @property
    def free_extent_bytes(self) -> int:
        """Recyclable space from dropped pages (not yet reused)."""
        return sum(
            size for extents in self._free_extents for _offset, size in extents
        )

    @property
    def disk_head_bytes(self) -> int:
        """Total high-water mark across the disks (allocation footprint)."""
        return sum(self._disk_heads)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SetFile({self.set_name!r}, pages={self.num_pages}, "
            f"bytes={self.bytes_on_disk})"
        )
