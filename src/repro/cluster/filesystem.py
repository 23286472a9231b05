"""File striping: how one logical file spreads across the servers.

The paper uses Lustre's stripe count of four (all four servers) with a
1 MB stripe size, so every client's large I/O fans out to every server.
:class:`StripedFileSystem` performs the extent → (server, chunk) split
and drives the client's OSCs; :class:`FileLayout` is the pure mapping
(kept separate so it can be property-tested without a simulator).
"""

from __future__ import annotations

from typing import Generator, List, Tuple

from repro.cluster.client import ClientNode
from repro.sim.process import AllOf
from repro.util.units import MiB
from repro.util.validation import check_positive

#: One stripe-aligned piece of a logical extent.
Chunk = Tuple[int, int, int]  # (server_index, offset, size)


class FileLayout:
    """Pure striping arithmetic (round-robin, Lustre RAID-0 layout)."""

    def __init__(self, n_servers: int, stripe_size: int = MiB):
        check_positive("n_servers", n_servers)
        check_positive("stripe_size", stripe_size)
        self.n_servers = int(n_servers)
        self.stripe_size = int(stripe_size)

    def server_of(self, offset: int) -> int:
        """Which server stores the byte at ``offset``."""
        return (offset // self.stripe_size) % self.n_servers

    def split(self, offset: int, size: int) -> List[Chunk]:
        """Split extent ``[offset, offset+size)`` at stripe boundaries."""
        if offset < 0:
            raise ValueError(f"offset must be >= 0, got {offset}")
        if size <= 0:
            raise ValueError(f"size must be > 0, got {size}")
        stripe = self.stripe_size
        if offset % stripe + size <= stripe:
            # Inside one stripe: the common case for small aligned I/O.
            return [((offset // stripe) % self.n_servers, offset, size)]
        chunks: List[Chunk] = []
        pos = offset
        remaining = size
        while remaining > 0:
            stripe_end = (pos // stripe + 1) * stripe
            take = min(remaining, stripe_end - pos)
            chunks.append((self.server_of(pos), pos, take))
            pos += take
            remaining -= take
        return chunks


class StripedFileSystem:
    """Per-client filesystem facade over the OSCs.

    Every I/O method returns a simulation generator: application
    processes drive it with ``yield from``.  Reads fan chunks out to the
    involved OSCs concurrently and wait for all; writes reserve cache
    space chunk by chunk (back-pressure applies in offset order, like
    page-cache dirtying); metadata operations go to the metadata server
    (server 0, standing in for Lustre's MDS).  An operation that touches
    one stripe returns the OSC's own generator, so the process driving
    it resumes through one frame fewer.
    """

    def __init__(self, client: ClientNode, layout: FileLayout):
        self.client = client
        self.layout = layout
        server_ids = sorted(client.oscs)
        if len(server_ids) != layout.n_servers:
            raise ValueError(
                f"layout expects {layout.n_servers} servers; client has "
                f"{len(server_ids)} OSCs"
            )
        # Index in layout -> that server's OSC.
        self._oscs = [client.oscs[sid] for sid in server_ids]

    # -- data ops -----------------------------------------------------------
    def read(self, obj_id: int, offset: int, size: int) -> Generator:
        """Read an extent; completes when every chunk has arrived.

        The generator's value is ``size``.
        """
        chunks = self.layout.split(offset, size)
        if len(chunks) == 1:
            sidx, off, sz = chunks[0]
            return self._oscs[sidx].read(obj_id, off, sz)
        return self._read_chunks(obj_id, chunks, size)

    def _read_chunks(self, obj_id: int, chunks: List[Chunk], size: int) -> Generator:
        sim = self.client.sim
        procs = [
            sim.spawn(
                self._oscs[sidx].read(obj_id, off, sz),
                name=f"read.{obj_id}.{off}",
            )
            for sidx, off, sz in chunks
        ]
        yield AllOf(sim, procs)
        return size

    def write(self, obj_id: int, offset: int, size: int) -> Generator:
        """Write an extent; completes once all chunks are cache-resident.

        The generator's value is ``size``.
        """
        chunks = self.layout.split(offset, size)
        if len(chunks) == 1:
            sidx, off, sz = chunks[0]
            return self._oscs[sidx].write(obj_id, off, sz)
        return self._write_chunks(obj_id, chunks, size)

    def _write_chunks(self, obj_id: int, chunks: List[Chunk], size: int) -> Generator:
        for sidx, off, sz in chunks:
            yield from self._oscs[sidx].write(obj_id, off, sz)
        return size

    # -- metadata ops --------------------------------------------------------
    def create(self, obj_id: int) -> Generator:
        return self._oscs[0].meta(obj_id)

    def delete(self, obj_id: int) -> Generator:
        return self._oscs[0].meta(obj_id)

    def stat(self, obj_id: int) -> Generator:
        return self._oscs[0].meta(obj_id)
