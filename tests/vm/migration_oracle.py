"""Page-at-a-time migration: the reference the batched kernel must match.

This is the scalar body ``AddressSpace.migrate_backing`` had before it
became a batch kernel.  It lives here only as a test oracle: the
property tests in ``test_migrate_batch.py`` run the same migration
sequence through both and compare every byte count and allocator state.
"""

from repro.errors import MappingError
from repro.vm.address_space import BACKING_ID_1G_OFFSET, BACKING_ID_2M_OFFSET
from repro.vm.layout import PAGE_4K, PageSize


def migrate_one(asp, backing_id, dst_node):
    """Migrate one backing page to ``dst_node``; returns bytes moved."""
    if not 0 <= dst_node < asp.n_nodes:
        raise MappingError(f"destination node {dst_node} out of range")
    kind = asp.backing_id_kind(backing_id)
    if kind is PageSize.SIZE_4K:
        granule = backing_id
        src = int(asp.node4k[granule])
        if src < 0:
            raise MappingError(f"granule {granule} is not 4KB-mapped")
        if asp.replicated_4k[granule]:
            return 0
        if src == dst_node:
            return 0
        if asp.phys[dst_node].free_bytes < PAGE_4K:
            return 0
        asp.phys[dst_node].alloc_small(1)
        asp.phys[src].free_small(1)
        asp.node4k[granule] = dst_node
        asp._bump_version()
        return PAGE_4K
    if kind is PageSize.SIZE_2M:
        chunk = backing_id - BACKING_ID_2M_OFFSET
        if not asp.huge[chunk]:
            raise MappingError(f"2MB chunk {chunk} is not huge-backed")
        if asp.replicated_2m[chunk]:
            return 0
        src = int(asp.node2m[chunk])
        if src == dst_node:
            return 0
        if not asp.phys[dst_node].can_alloc_huge():
            return 0
        block = asp.phys[dst_node].alloc_huge()
        asp.phys[src].free_huge(int(asp._block2m[chunk]))
        asp.node2m[chunk] = dst_node
        asp._block2m[chunk] = block
        asp._bump_version()
        return int(PageSize.SIZE_2M)
    gchunk = backing_id - BACKING_ID_1G_OFFSET
    if not asp.giga[gchunk]:
        raise MappingError(f"1GB chunk {gchunk} is not giga-backed")
    src = int(asp.node1g[gchunk])
    if src == dst_node:
        return 0
    if not asp.phys[dst_node].can_alloc_giga():
        return 0
    block = asp.phys[dst_node].alloc_giga()
    asp.phys[src].free_giga(int(asp._block1g[gchunk]))
    asp.node1g[gchunk] = dst_node
    asp._block1g[gchunk] = block
    asp._bump_version()
    return int(PageSize.SIZE_1G)


def migrate_in_order(asp, backing_ids, dst_nodes, budget=None):
    """Page-at-a-time migration of a batch; bytes moved per element.

    Stops before the first element at which the bytes moved so far
    reach ``budget``, like a decider loop checking its budget.
    """
    moved = [0] * len(backing_ids)
    total = 0
    for i, (backing_id, dst) in enumerate(zip(backing_ids, dst_nodes)):
        if budget is not None and total >= budget:
            break
        moved[i] = migrate_one(asp, int(backing_id), int(dst))
        total += moved[i]
    return moved
