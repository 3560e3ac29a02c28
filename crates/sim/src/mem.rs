//! Memory spaces: global (DRAM), shared (per CTA), and parameters.

use std::fmt;

/// Word-addressed global memory (also backing texture fetches).
///
/// Addresses are 32-bit word indices, not byte addresses; floating-point
/// data is stored as IEEE-754 bit patterns.
#[derive(Clone, PartialEq, Eq)]
pub struct GlobalMemory {
    words: Vec<u32>,
}

impl GlobalMemory {
    /// Allocates `words` zero-initialized 32-bit words.
    pub fn new(words: usize) -> Self {
        GlobalMemory {
            words: vec![0; words],
        }
    }

    /// Builds memory from f32 data (bit-cast).
    pub fn from_f32(data: &[f32]) -> Self {
        GlobalMemory {
            words: data.iter().map(|v| v.to_bits()).collect(),
        }
    }

    /// Builds memory from raw words.
    pub fn from_words(words: Vec<u32>) -> Self {
        GlobalMemory { words }
    }

    /// Size in words.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// Whether the memory has zero words.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Loads the word at `addr`, or `None` when out of bounds.
    pub fn load(&self, addr: u32) -> Option<u32> {
        self.words.get(addr as usize).copied()
    }

    /// Loads the word at `addr` as an f32.
    pub fn load_f32(&self, addr: u32) -> Option<f32> {
        self.load(addr).map(f32::from_bits)
    }

    /// Stores `value` at `addr`; returns false when out of bounds.
    pub fn store(&mut self, addr: u32, value: u32) -> bool {
        match self.words.get_mut(addr as usize) {
            Some(w) => {
                *w = value;
                true
            }
            None => false,
        }
    }

    /// The raw words, for result comparison.
    pub fn words(&self) -> &[u32] {
        &self.words
    }
}

impl fmt::Debug for GlobalMemory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "GlobalMemory({} words)", self.words.len())
    }
}

/// Per-CTA software-managed shared memory.
#[derive(Debug, Clone)]
pub struct SharedMemory {
    words: Vec<u32>,
}

impl SharedMemory {
    /// Allocates `words` zero-initialized words.
    pub fn new(words: usize) -> Self {
        SharedMemory {
            words: vec![0; words],
        }
    }

    /// Loads the word at `addr`.
    pub fn load(&self, addr: u32) -> Option<u32> {
        self.words.get(addr as usize).copied()
    }

    /// Stores `value` at `addr`; returns false when out of bounds.
    pub fn store(&mut self, addr: u32, value: u32) -> bool {
        match self.words.get_mut(addr as usize) {
            Some(w) => {
                *w = value;
                true
            }
            None => false,
        }
    }

    /// Size in words.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// Whether the memory has zero words.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_store_round_trip() {
        let mut m = GlobalMemory::new(8);
        assert!(m.store(3, 42));
        assert_eq!(m.load(3), Some(42));
        assert_eq!(m.load(8), None);
        assert!(!m.store(8, 1));
    }

    #[test]
    fn f32_bit_casting() {
        let m = GlobalMemory::from_f32(&[1.5, -2.0]);
        assert_eq!(m.load_f32(0), Some(1.5));
        assert_eq!(m.load_f32(1), Some(-2.0));
    }

    #[test]
    fn shared_memory_is_bounded() {
        let mut s = SharedMemory::new(4);
        assert!(s.store(0, 7));
        assert_eq!(s.load(0), Some(7));
        assert_eq!(s.load(4), None);
        assert_eq!(s.len(), 4);
    }
}
