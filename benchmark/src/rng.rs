//! The benchmark's only source of randomness: xorshift64*, seeded from
//! `--seed`, so the same seed always draws the same job mix, connection
//! order and payload bytes. The program under test sees only those inputs.

#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// `stream` separates independent draws (one per block, one per
    /// workload phase) under a single user seed.
    pub fn new(seed: u64, stream: u64) -> Rng {
        // splitmix64 of (seed, stream): never zero-state, well mixed even
        // for seeds 0, 1, 2.
        let mut z = seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
            .wrapping_add(0x2545_F491_4F6C_DD1D);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        Rng((z ^ (z >> 31)) | 1)
    }

    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }

    /// Fisher–Yates.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }

    /// Fills `buf` with printable ASCII (payloads are compared byte for
    /// byte, and printable bytes keep a failing diff readable).
    pub fn fill_printable(&mut self, buf: &mut [u8]) {
        for b in buf {
            *b = b' ' + self.below(95) as u8;
        }
    }
}
