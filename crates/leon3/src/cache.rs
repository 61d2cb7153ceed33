//! Cache access paths over nets (the CMEM injection domain).
//!
//! Both caches are direct-mapped, write-through and no-write-allocate, like
//! the default Leon3 configuration. Tags, valid bits and data words are all
//! nets, so faults produce the realistic spectrum of cache pathologies:
//! false hits (stale data), false misses (spurious refills), corrupted
//! refill data and corrupted store-through data.

use crate::core::Leon3;
use rtl_sim::NetId;
use sparc_iss::{BusEvent, BusKind, CacheSpec};

/// Which cache an access targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Side {
    Instruction,
    Data,
}

impl Leon3 {
    fn geometry(&self, side: Side) -> CacheSpec {
        match side {
            Side::Instruction => self.config.icache,
            Side::Data => self.config.dcache,
        }
    }

    fn hit_and_index_nets(&self, side: Side) -> (NetId, NetId) {
        match side {
            Side::Instruction => (self.nets.ic_hit, self.nets.ic_index),
            Side::Data => (self.nets.dc_hit, self.nets.dc_index),
        }
    }

    fn tag_and_valid_nets(&self, side: Side, index: usize) -> (NetId, NetId) {
        match side {
            Side::Instruction => (self.nets.itag[index], self.nets.ivalid[index]),
            Side::Data => (self.nets.dtag[index], self.nets.dvalid[index]),
        }
    }

    fn data_net(&self, side: Side, index: usize, word: usize) -> NetId {
        let words = self.geometry(side).line_bytes / 4;
        match side {
            Side::Instruction => self.nets.idata[index * words + word],
            Side::Data => self.nets.ddata[index * words + word],
        }
    }

    fn index_and_tag(&self, side: Side, addr: u32) -> (usize, u32) {
        let (index, tag) = self.geometry(side).index_and_tag(addr);
        (index, tag & 0xf_ffff)
    }

    /// The word of its line that `addr` falls in.
    fn word_in_line(&self, side: Side, addr: u32) -> usize {
        (addr as usize & (self.geometry(side).line_bytes - 1)) / 4
    }

    /// The line's parity net, when the parity mechanism is configured.
    fn parity_net(&self, side: Side, index: usize) -> Option<NetId> {
        match side {
            Side::Instruction => self.nets.iparity.get(index).copied(),
            Side::Data => self.nets.dparity.get(index).copied(),
        }
    }

    /// XOR of the line's data words as stored in the arrays.
    fn line_words_xor(&self, side: Side, index: usize) -> u32 {
        let words = self.geometry(side).line_bytes / 4;
        (0..words).fold(0u32, |acc, w| {
            acc ^ self.pool.read(self.data_net(side, index, w))
        })
    }

    /// Check a valid line against its stored parity bit and latch the
    /// first mismatch cycle. Purely observational: the access itself
    /// proceeds unchanged, so enabling parity never perturbs outcomes.
    fn parity_check(&mut self, side: Side, index: usize, stored_tag: u32) {
        let Some(pnet) = self.parity_net(side, index) else {
            return;
        };
        let expected = line_parity(stored_tag, 1, self.line_words_xor(side, index));
        if self.pool.read(pnet) != expected && self.parity_event.is_none() {
            self.parity_event = Some(self.pool.cycle());
        }
    }

    /// Route the line index through the controller's index net (so control
    /// faults can redirect accesses to the wrong set) and return it.
    fn effective_index(&mut self, side: Side, index: usize) -> usize {
        let (_, index_net) = self.hit_and_index_nets(side);
        self.pool.write(index_net, index as u32);
        self.pool.read(index_net) as usize & (self.geometry(side).lines - 1)
    }

    /// Look up `addr`; returns whether it hit (through the hit net, so
    /// control faults can flip the outcome).
    fn lookup(&mut self, side: Side, addr: u32) -> bool {
        let (index, tag) = self.index_and_tag(side, addr);
        let index = self.effective_index(side, index);
        let (tag_net, valid_net) = self.tag_and_valid_nets(side, index);
        let stored_tag = self.pool.read(tag_net);
        let valid = self.pool.read(valid_net) == 1;
        if valid {
            self.parity_check(side, index, stored_tag);
        }
        let hit = valid && stored_tag == tag;
        let (hit_net, _) = self.hit_and_index_nets(side);
        self.pool.write(hit_net, u32::from(hit));
        self.pool.read(hit_net) == 1
    }

    /// Refill the line containing `addr` from memory over the bus.
    fn refill(&mut self, side: Side, addr: u32) {
        let spec = self.geometry(side);
        let (index, tag) = self.index_and_tag(side, addr);
        let index = self.effective_index(side, index);
        let words = spec.line_bytes / 4;
        let line_base = addr & !(spec.line_bytes as u32 - 1);
        // Parity is generated from the incoming bus values, before the
        // array: a stuck-at in the data array then shows up as a mismatch
        // between the stored parity and the array's read-back on a later
        // lookup, which is exactly how a hardware parity tree catches it.
        let mut incoming = 0u32;
        for w in 0..words {
            let word_addr = line_base + (w as u32) * 4;
            // Bus transfer through the controller nets.
            self.pool.write(self.nets.bus_addr, word_addr);
            let bus_addr = self.pool.read(self.nets.bus_addr);
            let value = self.mem.read_u32(bus_addr).unwrap_or(0);
            self.pool.write(self.nets.bus_data, value);
            let value = self.pool.read(self.nets.bus_data);
            let at = self.pool.cycle();
            self.trace.push(BusEvent {
                at,
                kind: BusKind::Read,
                addr: word_addr,
                size: 4,
                data: value,
            });
            let net = self.data_net(side, index, w);
            self.pool.write(net, value);
            incoming ^= value;
        }
        let (tag_net, valid_net) = self.tag_and_valid_nets(side, index);
        self.pool.write(tag_net, tag);
        self.pool.write(valid_net, 1);
        if let Some(pnet) = self.parity_net(side, index) {
            self.pool.write(pnet, line_parity(tag, 1, incoming));
        }
        self.advance_cycles(u64::from(spec.miss_penalty));
    }

    /// Read the cached word containing `addr` (must follow a hit or
    /// refill).
    fn cached_word(&mut self, side: Side, addr: u32) -> u32 {
        let (index, _) = self.index_and_tag(side, addr);
        let index = self.effective_index(side, index);
        let word = self.word_in_line(side, addr);
        let net = self.data_net(side, index, word);
        self.pool.read(net)
    }

    /// Fetch an instruction word through the instruction cache.
    pub(crate) fn icache_fetch(&mut self, pc: u32) -> u32 {
        if !self.lookup(Side::Instruction, pc) {
            self.refill(Side::Instruction, pc);
        }
        self.cached_word(Side::Instruction, pc)
    }

    /// Load a 32-bit word through the data cache.
    pub(crate) fn dcache_load_word(&mut self, addr: u32) -> u32 {
        if !self.lookup(Side::Data, addr) {
            self.refill(Side::Data, addr);
        }
        self.cached_word(Side::Data, addr)
    }

    /// Store through the data cache: memory always updated (write-through);
    /// the cached copy only on hit (no-write-allocate). `size` ∈ {1,2,4};
    /// `addr` is already size-aligned. Emits the off-core write event.
    pub(crate) fn dcache_store(&mut self, addr: u32, size: u8, value: u32) {
        // Bus write through the controller nets — the lockstep comparison
        // point.
        self.pool.write(self.nets.bus_addr, addr);
        self.pool.write(self.nets.bus_data, value);
        let bus_addr = self.pool.read(self.nets.bus_addr);
        let bus_value = self.pool.read(self.nets.bus_data);
        // The memory stage validated `addr`, but a fault on the bus
        // address net can carry the store outside RAM or off alignment.
        // The bus then errors, as on a refill: memory keeps its contents,
        // and the write still leaves the core at the corrupted address.
        let _bus_error = match size {
            1 => self.mem.write_u8(bus_addr, bus_value as u8),
            2 => self.mem.write_u16(bus_addr, bus_value as u16),
            _ => self.mem.write_u32(bus_addr, bus_value),
        };
        let at = self.pool.cycle();
        self.trace.push(BusEvent {
            at,
            kind: BusKind::Write,
            addr: bus_addr,
            size,
            data: bus_value & size_mask(size),
        });

        if self.lookup(Side::Data, addr) {
            // Update the cached copy in place (big-endian byte lanes).
            let word_addr = addr & !3;
            let current = self.cached_word(Side::Data, word_addr);
            let shift = (3 - (addr as usize % 4) - (usize::from(size) - 1)) * 8;
            let mask = size_mask(size) << shift;
            let merged = (current & !mask) | ((bus_value & size_mask(size)) << shift);
            let (index, _) = self.index_and_tag(Side::Data, word_addr);
            let index = self.effective_index(Side::Data, index);
            let word = self.word_in_line(Side::Data, word_addr);
            let net = self.data_net(Side::Data, index, word);
            self.pool.write(net, merged);
            if let Some(pnet) = self.parity_net(Side::Data, index) {
                // Regenerate the line parity. The untouched words come from
                // the array read-back; the merged word uses the value just
                // driven, so a stuck-at there still mismatches on the next
                // lookup instead of being silently folded into the parity.
                let words = self.geometry(Side::Data).line_bytes / 4;
                let others = (0..words).filter(|&w| w != word).fold(0u32, |acc, w| {
                    acc ^ self.pool.read(self.data_net(Side::Data, index, w))
                });
                let (tag_net, valid_net) = self.tag_and_valid_nets(Side::Data, index);
                let tag = self.pool.read(tag_net);
                let valid = self.pool.read(valid_net);
                self.pool
                    .write(pnet, line_parity(tag, valid, others ^ merged));
            }
        }
    }
}

/// Even parity over a line's tag, valid bit and XORed data words.
fn line_parity(tag: u32, valid: u32, words_xor: u32) -> u32 {
    (tag ^ valid ^ words_xor).count_ones() & 1
}

fn size_mask(size: u8) -> u32 {
    match size {
        1 => 0xff,
        2 => 0xffff,
        _ => u32::MAX,
    }
}
