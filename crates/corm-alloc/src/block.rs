//! Data blocks: the unit of transfer between the process-wide and
//! thread-local allocators, and the unit of compaction.
//!
//! A [`Block`] couples three things:
//! - its *physical identity* — the memfd file and page run backing it, plus
//!   the frames themselves;
//! - its *virtual identity* — the vaddr it is mapped at and (once the
//!   server registers it) the RDMA keys;
//! - its *occupancy metadata* — a [`BlockModel`] of live IDs/offsets and
//!   the ID→slot hash table the paper keeps "for fast pointer correction"
//!   (§3.1.4).

use std::collections::HashMap;

use rand::Rng;

use corm_compact::BlockModel;
use corm_sim_mem::{FileId, FrameId};

use crate::classes::ClassId;

/// Globally unique block identifier (for diagnostics and ownership maps).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId(pub u64);

/// A slot within a block: `byte_offset = slot * gross_object_size`.
pub type ObjectSlot = u32;

/// A memory block holding objects of a single size class.
#[derive(Debug)]
pub struct Block {
    id: BlockId,
    class: ClassId,
    /// Gross object size (header included).
    obj_size: usize,
    /// Virtual base address the block is mapped at.
    vaddr: u64,
    /// Pages backing the block.
    pages: usize,
    /// Physical identity: owning file and first page within it.
    file: FileId,
    file_page: usize,
    /// The physical frames currently backing the block's vaddr.
    frames: Vec<FrameId>,
    /// Occupancy model (live IDs and slot offsets).
    model: BlockModel,
    /// ID → slot map: the per-block metadata table for pointer correction.
    id_slot: HashMap<u32, ObjectSlot>,
    /// Slot → ID reverse map.
    slot_id: Vec<Option<u32>>,
    /// RDMA keys once the server registers the block (lkey, rkey).
    keys: Option<(u32, u32)>,
    /// Owning worker thread.
    owner: u16,
}

impl Block {
    /// Builds a block of `class` with `obj_size`-byte objects over `pages`
    /// pages mapped at `vaddr`, with an ID space of `id_space` identifiers.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        id: BlockId,
        class: ClassId,
        obj_size: usize,
        vaddr: u64,
        pages: usize,
        file: FileId,
        file_page: usize,
        frames: Vec<FrameId>,
        id_space: usize,
        owner: u16,
    ) -> Self {
        assert_eq!(frames.len(), pages, "frame count must match pages");
        let block_bytes = pages * corm_sim_mem::PAGE_SIZE;
        let slots = block_bytes / obj_size;
        assert!(slots > 0, "object size {obj_size} exceeds block {block_bytes}");
        Block {
            id,
            class,
            obj_size,
            vaddr,
            pages,
            file,
            file_page,
            frames,
            model: BlockModel::new(slots, id_space.max(slots)),
            id_slot: HashMap::new(),
            slot_id: vec![None; slots],
            keys: None,
            owner,
        }
    }

    /// Unique id of this block.
    pub fn id(&self) -> BlockId {
        self.id
    }

    /// The block's size class.
    pub fn class(&self) -> ClassId {
        self.class
    }

    /// Gross object size in bytes.
    pub fn obj_size(&self) -> usize {
        self.obj_size
    }

    /// Virtual base address.
    pub fn vaddr(&self) -> u64 {
        self.vaddr
    }

    /// Number of backing pages.
    pub fn pages(&self) -> usize {
        self.pages
    }

    /// Block length in bytes.
    pub fn len_bytes(&self) -> usize {
        self.pages * corm_sim_mem::PAGE_SIZE
    }

    /// Physical identity: (file, first page).
    pub fn phys_identity(&self) -> (FileId, usize) {
        (self.file, self.file_page)
    }

    /// The frames currently backing the block.
    pub fn frames(&self) -> &[FrameId] {
        &self.frames
    }

    /// Total object slots.
    pub fn slots(&self) -> usize {
        self.model.slots()
    }

    /// Live objects.
    pub fn live(&self) -> usize {
        self.model.live()
    }

    /// Occupancy in `[0, 1]`.
    pub fn occupancy(&self) -> f64 {
        self.model.occupancy()
    }

    /// Whether no objects are live.
    pub fn is_empty(&self) -> bool {
        self.model.is_empty()
    }

    /// Whether every slot is taken.
    pub fn is_full(&self) -> bool {
        self.model.is_full()
    }

    /// The occupancy model (for compaction conflict checks).
    pub fn model(&self) -> &BlockModel {
        &self.model
    }

    /// Registered RDMA keys, if any.
    pub fn keys(&self) -> Option<(u32, u32)> {
        self.keys
    }

    /// Remote key, if registered.
    pub fn rkey(&self) -> Option<u32> {
        self.keys.map(|(_, r)| r)
    }

    /// Attaches RDMA keys after registration.
    pub fn set_keys(&mut self, lkey: u32, rkey: u32) {
        self.keys = Some((lkey, rkey));
    }

    /// Owning worker thread.
    pub fn owner(&self) -> u16 {
        self.owner
    }

    /// Reassigns ownership (blocks move to the compaction leader).
    pub fn set_owner(&mut self, owner: u16) {
        self.owner = owner;
    }

    /// Allocates a slot with a fresh random object ID. Returns
    /// `(id, slot)`, or `None` when full.
    pub fn alloc_object(&mut self, rng: &mut impl Rng) -> Option<(u32, ObjectSlot)> {
        let (id, slot) = self.model.alloc(rng)?;
        let (id, slot) = (id as u32, slot as ObjectSlot);
        self.id_slot.insert(id, slot);
        self.slot_id[slot as usize] = Some(id);
        Some((id, slot))
    }

    /// Inserts an object with an explicit ID at an explicit slot (used when
    /// compaction moves objects in). Returns `false` on conflict.
    pub fn insert_object(&mut self, id: u32, slot: ObjectSlot) -> bool {
        if !self.model.insert(id as usize, slot as usize) {
            return false;
        }
        self.id_slot.insert(id, slot);
        self.slot_id[slot as usize] = Some(id);
        true
    }

    /// Frees the object in `slot`; returns its ID, or `None` if vacant.
    pub fn free_slot(&mut self, slot: ObjectSlot) -> Option<u32> {
        let id = self.slot_id[slot as usize].take()?;
        let removed = self.model.free(id as usize, slot as usize);
        debug_assert!(removed);
        self.id_slot.remove(&id);
        Some(id)
    }

    /// The slot currently holding object `id` — the metadata lookup used
    /// for pointer correction (§3.2.1).
    pub fn slot_of_id(&self, id: u32) -> Option<ObjectSlot> {
        self.id_slot.get(&id).copied()
    }

    /// The ID of the object in `slot`, if any.
    pub fn id_at_slot(&self, slot: ObjectSlot) -> Option<u32> {
        self.slot_id.get(slot as usize).copied().flatten()
    }

    /// The first free slot, if any.
    pub fn free_slot_hint(&self) -> Option<ObjectSlot> {
        self.model.offsets().lowest_clear(1).first().map(|&s| s as ObjectSlot)
    }

    /// Byte offset of a slot within the block.
    pub fn slot_offset(&self, slot: ObjectSlot) -> usize {
        slot as usize * self.obj_size
    }

    /// Virtual address of a slot.
    pub fn slot_vaddr(&self, slot: ObjectSlot) -> u64 {
        self.vaddr + self.slot_offset(slot) as u64
    }

    /// The slot containing byte offset `off`, if exactly slot-aligned.
    pub fn slot_of_offset(&self, off: usize) -> Option<ObjectSlot> {
        if !off.is_multiple_of(self.obj_size) {
            return None;
        }
        let slot = off / self.obj_size;
        (slot < self.slots()).then_some(slot as ObjectSlot)
    }

    /// Iterates `(id, slot)` pairs of live objects in slot order.
    pub fn live_objects(&self) -> impl Iterator<Item = (u32, ObjectSlot)> + '_ {
        self.slot_id
            .iter()
            .enumerate()
            .filter_map(|(slot, id)| id.map(|id| (id, slot as ObjectSlot)))
    }

    /// Whether `other` can be merged into `self` under CoRM's ID rule.
    pub fn corm_compactable(&self, other: &Block) -> bool {
        self.class == other.class
            && self.obj_size == other.obj_size
            && self.model.corm_compactable(other.model())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn mk_block(obj_size: usize, pages: usize) -> Block {
        let frames = (0..pages as u32).map(FrameId).collect();
        Block::new(
            BlockId(1),
            ClassId(0),
            obj_size,
            0x10_0000,
            pages,
            FileId(1),
            0,
            frames,
            1 << 16,
            0,
        )
    }

    #[test]
    fn geometry() {
        let b = mk_block(64, 1);
        assert_eq!(b.slots(), 64);
        assert_eq!(b.len_bytes(), 4096);
        assert_eq!(b.slot_offset(3), 192);
        assert_eq!(b.slot_vaddr(2), 0x10_0000 + 128);
        assert_eq!(b.slot_of_offset(192), Some(3));
        assert_eq!(b.slot_of_offset(100), None, "unaligned offset");
        assert_eq!(b.slot_of_offset(64 * 64), None, "past last slot");
    }

    #[test]
    fn alloc_free_cycle_with_metadata() {
        let mut b = mk_block(512, 1);
        let mut rng = StdRng::seed_from_u64(1);
        let (id, slot) = b.alloc_object(&mut rng).unwrap();
        assert_eq!(b.live(), 1);
        assert_eq!(b.slot_of_id(id), Some(slot));
        assert_eq!(b.id_at_slot(slot), Some(id));
        assert_eq!(b.free_slot(slot), Some(id));
        assert_eq!(b.live(), 0);
        assert_eq!(b.slot_of_id(id), None);
        assert_eq!(b.free_slot(slot), None, "double free detected");
    }

    #[test]
    fn fills_to_capacity() {
        let mut b = mk_block(1024, 1);
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..4 {
            b.alloc_object(&mut rng).unwrap();
        }
        assert!(b.is_full());
        assert!(b.alloc_object(&mut rng).is_none());
        assert_eq!(b.live_objects().count(), 4);
    }

    #[test]
    fn insert_object_conflicts_detected() {
        let mut b = mk_block(512, 1);
        assert!(b.insert_object(42, 3));
        assert!(!b.insert_object(42, 5), "duplicate id");
        assert!(!b.insert_object(43, 3), "occupied slot");
        assert!(b.insert_object(43, 4));
        assert_eq!(b.live(), 2);
    }

    #[test]
    fn compactability_requires_same_class_and_disjoint_ids() {
        let mut a = mk_block(512, 1);
        let mut b = mk_block(512, 1);
        a.insert_object(1, 0);
        b.insert_object(2, 0);
        assert!(a.corm_compactable(&b));
        let mut c = mk_block(512, 1);
        c.insert_object(1, 4);
        assert!(!a.corm_compactable(&c));
    }

    #[test]
    fn keys_and_owner_lifecycle() {
        let mut b = mk_block(64, 1);
        assert_eq!(b.keys(), None);
        b.set_keys(7, 8);
        assert_eq!(b.rkey(), Some(8));
        assert_eq!(b.owner(), 0);
        b.set_owner(3);
        assert_eq!(b.owner(), 3);
    }

    #[test]
    fn multi_page_block_geometry() {
        let b = mk_block(4096, 4);
        assert_eq!(b.slots(), 4);
        assert_eq!(b.len_bytes(), 16384);
    }

    #[test]
    fn free_slot_hint_is_lowest() {
        let mut b = mk_block(1024, 1);
        b.insert_object(1, 0);
        b.insert_object(2, 2);
        assert_eq!(b.free_slot_hint(), Some(1));
    }
}
