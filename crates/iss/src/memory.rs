//! Sparse, big-endian, page-granular memory.

use sparc_asm::Program;
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

const PAGE_SHIFT: u32 = 12;
const PAGE_SIZE: usize = 1 << PAGE_SHIFT;

/// Hashes a page number with one multiply by an odd constant, so
/// consecutive pages land in distinct buckets. Every fetch looks a page
/// up, and SipHash's resistance to crafted keys buys nothing here: the
/// keys are page numbers inside the RAM window, so at most
/// `size >> PAGE_SHIFT` of them exist.
#[derive(Debug, Default)]
struct PageHasher(u64);

impl Hasher for PageHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.write_u32(u32::from(byte));
        }
    }

    fn write_u32(&mut self, page: u32) {
        self.0 = (self.0 ^ u64::from(page)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }
}

/// A memory access error, reported to the core as a data/instruction access
/// trap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemError {
    /// The address is outside the configured RAM window.
    OutOfRange {
        /// The faulting address.
        addr: u32,
    },
    /// The address is not aligned to the access size.
    Misaligned {
        /// The faulting address.
        addr: u32,
        /// Access size in bytes.
        size: u8,
    },
}

impl fmt::Display for MemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemError::OutOfRange { addr } => write!(f, "address {addr:#010x} out of range"),
            MemError::Misaligned { addr, size } => {
                write!(f, "address {addr:#010x} misaligned for {size}-byte access")
            }
        }
    }
}

impl std::error::Error for MemError {}

/// Sparse big-endian memory covering a single RAM window.
///
/// Pages are allocated lazily and zero-filled, so a multi-megabyte RAM costs
/// only what the workload touches.
#[derive(Debug)]
pub struct Memory {
    pages: HashMap<u32, Box<[u8; PAGE_SIZE]>, BuildHasherDefault<PageHasher>>,
    base: u32,
    size: u32,
}

impl Clone for Memory {
    fn clone(&self) -> Memory {
        Memory {
            pages: self.pages.clone(),
            base: self.base,
            size: self.size,
        }
    }

    /// Copy `source` into this memory's own page buffers, allocating only
    /// pages this one lacks, so restoring a snapshot over a model that ran
    /// the same workload copies bytes without touching the allocator.
    fn clone_from(&mut self, source: &Memory) {
        self.pages.retain(|page, _| source.pages.contains_key(page));
        for (&page, bytes) in &source.pages {
            match self.pages.get_mut(&page) {
                Some(own) => own.copy_from_slice(&bytes[..]),
                None => {
                    self.pages.insert(page, bytes.clone());
                }
            }
        }
        self.base = source.base;
        self.size = source.size;
    }
}

impl Memory {
    /// Memory with the given RAM window (e.g. base `0x4000_0000`).
    pub fn new(base: u32, size: u32) -> Memory {
        Memory {
            pages: HashMap::default(),
            base,
            size,
        }
    }

    /// The RAM window as `(base, size)`.
    pub fn window(&self) -> (u32, u32) {
        (self.base, self.size)
    }

    /// Bytes actually resident: allocated pages only, not the window size.
    /// Snapshot memory accounting keys on this — a cloned `Memory` costs
    /// what the workload touched, not what the platform advertises.
    pub fn resident_bytes(&self) -> usize {
        self.pages.len() * PAGE_SIZE
    }

    /// Whether `addr..addr+len` lies inside the RAM window.
    pub fn in_range(&self, addr: u32, len: u32) -> bool {
        addr >= self.base
            && addr
                .checked_add(len)
                .is_some_and(|end| end <= self.base.wrapping_add(self.size))
    }

    fn check(&self, addr: u32, size: u8) -> Result<(), MemError> {
        if !self.in_range(addr, u32::from(size)) {
            return Err(MemError::OutOfRange { addr });
        }
        if !addr.is_multiple_of(u32::from(size)) {
            return Err(MemError::Misaligned { addr, size });
        }
        Ok(())
    }

    fn page(&self, addr: u32) -> Option<&[u8; PAGE_SIZE]> {
        self.pages.get(&(addr >> PAGE_SHIFT)).map(|b| &**b)
    }

    fn page_mut(&mut self, addr: u32) -> &mut [u8; PAGE_SIZE] {
        self.pages
            .entry(addr >> PAGE_SHIFT)
            .or_insert_with(|| Box::new([0; PAGE_SIZE]))
    }

    /// Read one byte without alignment checks.
    ///
    /// # Errors
    ///
    /// Fails if the address is outside the RAM window.
    pub fn read_u8(&self, addr: u32) -> Result<u8, MemError> {
        self.check(addr, 1)?;
        Ok(self
            .page(addr)
            .map_or(0, |p| p[(addr as usize) % PAGE_SIZE]))
    }

    /// Write one byte.
    ///
    /// # Errors
    ///
    /// Fails if the address is outside the RAM window.
    pub fn write_u8(&mut self, addr: u32, value: u8) -> Result<(), MemError> {
        self.check(addr, 1)?;
        self.page_mut(addr)[(addr as usize) % PAGE_SIZE] = value;
        Ok(())
    }

    /// Read a big-endian 16-bit halfword.
    ///
    /// # Errors
    ///
    /// Fails on misalignment or out-of-range addresses.
    pub fn read_u16(&self, addr: u32) -> Result<u16, MemError> {
        self.check(addr, 2)?;
        Ok(u16::from(self.read_u8(addr)?) << 8 | u16::from(self.read_u8(addr + 1)?))
    }

    /// Write a big-endian 16-bit halfword.
    ///
    /// # Errors
    ///
    /// Fails on misalignment or out-of-range addresses.
    pub fn write_u16(&mut self, addr: u32, value: u16) -> Result<(), MemError> {
        self.check(addr, 2)?;
        self.write_u8(addr, (value >> 8) as u8)?;
        self.write_u8(addr + 1, value as u8)
    }

    /// Read a big-endian 32-bit word.
    ///
    /// # Errors
    ///
    /// Fails on misalignment or out-of-range addresses.
    pub fn read_u32(&self, addr: u32) -> Result<u32, MemError> {
        self.check(addr, 4)?;
        // Fast path within one page.
        let off = (addr as usize) % PAGE_SIZE;
        if let Some(p) = self.page(addr) {
            Ok(u32::from_be_bytes([
                p[off],
                p[off + 1],
                p[off + 2],
                p[off + 3],
            ]))
        } else {
            Ok(0)
        }
    }

    /// Write a big-endian 32-bit word.
    ///
    /// # Errors
    ///
    /// Fails on misalignment or out-of-range addresses.
    pub fn write_u32(&mut self, addr: u32, value: u32) -> Result<(), MemError> {
        self.check(addr, 4)?;
        let off = (addr as usize) % PAGE_SIZE;
        let p = self.page_mut(addr);
        p[off..off + 4].copy_from_slice(&value.to_be_bytes());
        Ok(())
    }

    /// Load a program image, rejecting segments outside the RAM window.
    ///
    /// This is the fallible twin of [`Memory::load`] for callers handling
    /// untrusted or computed images (e.g. campaign tooling loading a
    /// workload named on a command line). On error the image is partially
    /// loaded — callers are expected to discard the memory.
    ///
    /// # Errors
    ///
    /// Fails with [`MemError::OutOfRange`] (carrying the segment's base
    /// address) on the first segment outside the window.
    pub fn try_load(&mut self, program: &Program) -> Result<(), MemError> {
        for seg in &program.segments {
            if !self.in_range(seg.base, seg.bytes.len() as u32) {
                return Err(MemError::OutOfRange { addr: seg.base });
            }
            for (i, &b) in seg.bytes.iter().enumerate() {
                let addr = seg.base + i as u32;
                self.page_mut(addr)[(addr as usize) % PAGE_SIZE] = b;
            }
        }
        Ok(())
    }

    /// Load a program image.
    ///
    /// # Panics
    ///
    /// Panics if any segment falls outside the RAM window — a programming
    /// error in the workload, not a runtime condition. (Campaign workers
    /// additionally run under panic isolation, so even this aborts at most
    /// one job.) Use [`Memory::try_load`] to handle untrusted images.
    pub fn load(&mut self, program: &Program) {
        if self.try_load(program).is_err() {
            let seg = program
                .segments
                .iter()
                .find(|s| !self.in_range(s.base, s.bytes.len() as u32))
                .expect("try_load only fails on an out-of-window segment");
            panic!(
                "segment {:#010x}..{:#010x} outside RAM window",
                seg.base,
                seg.end()
            );
        }
    }

    /// Number of resident (touched) pages.
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem() -> Memory {
        Memory::new(0x4000_0000, 0x10_0000)
    }

    #[test]
    fn rw_roundtrip_all_widths() {
        let mut m = mem();
        m.write_u32(0x4000_0000, 0x0102_0304).unwrap();
        assert_eq!(m.read_u32(0x4000_0000).unwrap(), 0x0102_0304);
        assert_eq!(m.read_u16(0x4000_0000).unwrap(), 0x0102);
        assert_eq!(m.read_u16(0x4000_0002).unwrap(), 0x0304);
        assert_eq!(m.read_u8(0x4000_0003).unwrap(), 0x04);
        m.write_u16(0x4000_0002, 0xbeef).unwrap();
        assert_eq!(m.read_u32(0x4000_0000).unwrap(), 0x0102_beef);
        m.write_u8(0x4000_0000, 0xff).unwrap();
        assert_eq!(m.read_u32(0x4000_0000).unwrap(), 0xff02_beef);
    }

    #[test]
    fn unmapped_reads_zero() {
        let m = mem();
        assert_eq!(m.read_u32(0x4000_1000).unwrap(), 0);
        assert_eq!(m.resident_pages(), 0);
    }

    #[test]
    fn alignment_enforced() {
        let mut m = mem();
        assert!(matches!(
            m.read_u32(0x4000_0002),
            Err(MemError::Misaligned { .. })
        ));
        assert!(matches!(
            m.read_u16(0x4000_0001),
            Err(MemError::Misaligned { .. })
        ));
        assert!(matches!(
            m.write_u32(0x4000_0001, 0),
            Err(MemError::Misaligned { .. })
        ));
    }

    #[test]
    fn range_enforced() {
        let mut m = mem();
        assert!(matches!(
            m.read_u32(0x3fff_fffc),
            Err(MemError::OutOfRange { .. })
        ));
        assert!(matches!(
            m.write_u8(0x4010_0000, 0),
            Err(MemError::OutOfRange { .. })
        ));
        // Last word in range is fine.
        assert!(m.write_u32(0x400f_fffc, 1).is_ok());
        // Word straddling the end is not.
        assert!(matches!(
            m.read_u16(0x400f_ffff),
            Err(MemError::OutOfRange { .. })
        ));
    }

    #[test]
    fn cross_page_words() {
        let mut m = mem();
        // Word fully within page is the only legal case (4-aligned), but
        // halfword at page end - 2 is fine.
        m.write_u16(0x4000_0ffe, 0xabcd).unwrap();
        assert_eq!(m.read_u16(0x4000_0ffe).unwrap(), 0xabcd);
        assert_eq!(m.resident_pages(), 1);
    }

    #[test]
    fn loads_program_segments() {
        use sparc_asm::assemble;
        let program = assemble(".org 0x40000000\n.word 0xdeadbeef\n").unwrap();
        let mut m = mem();
        m.load(&program);
        assert_eq!(m.read_u32(0x4000_0000).unwrap(), 0xdead_beef);
    }

    #[test]
    #[should_panic(expected = "outside RAM window")]
    fn load_outside_window_panics() {
        use sparc_asm::assemble;
        let program = assemble(".org 0x100\n.word 1\n").unwrap();
        let mut m = mem();
        m.load(&program);
    }

    #[test]
    fn try_load_reports_out_of_window_segments() {
        use sparc_asm::assemble;
        let mut m = mem();
        let bad = assemble(".org 0x100\n.word 1\n").unwrap();
        assert_eq!(m.try_load(&bad), Err(MemError::OutOfRange { addr: 0x100 }));
        let good = assemble(".org 0x40000000\n.word 2\n").unwrap();
        assert_eq!(m.try_load(&good), Ok(()));
        assert_eq!(m.read_u32(0x4000_0000).unwrap(), 2);
    }
}
