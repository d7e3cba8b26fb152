//! Toeplitz receive-side scaling (RSS).
//!
//! RSS is the "widely-used hash-based packet steering" the paper's
//! introduction calls out as a load-imbalance source [13, 27, 43]. NICs
//! compute a Toeplitz hash over the packet's 5-tuple and use its low bits
//! to pick an RX queue. This is a faithful implementation with the
//! Microsoft-specified default secret key, validated against the published
//! test vectors.
//!
//! The hash is linear over GF(2): input bit `i` set XORs in the 32 key bits
//! starting at key bit `i`. A byte's contribution therefore depends only on
//! its value and its position, so [`Toeplitz`] precomputes one 256-entry
//! row per input position and hashes with one load and one XOR per byte.
//! Past the key's end every window is zero, so the rows stop there and
//! later input bytes contribute nothing. The key's rows are evaluated at
//! compile time.

use crate::flow::FiveTuple;

/// Length of an RSS secret key in bytes.
const KEY_LEN: usize = 40;

/// The Microsoft RSS default secret key (40 bytes).
pub const DEFAULT_KEY: [u8; KEY_LEN] = [
    0x6d, 0x5a, 0x56, 0xda, 0x25, 0x5b, 0x0e, 0xc2, 0x41, 0x67, 0x25, 0x3d, 0x43, 0xa3, 0x8f, 0xb0,
    0xd0, 0xca, 0x2b, 0xcb, 0xae, 0x7b, 0x30, 0xb4, 0x77, 0xcb, 0x2d, 0xa3, 0x80, 0x30, 0xf2, 0x0c,
    0x6a, 0x42, 0xb7, 0x3b, 0xbe, 0xac, 0x01, 0xfa,
];

/// `row[byte]`: the hash of `byte` at one input position.
type Row = [u32; 256];

/// One row per input position the key reaches (40 KiB).
type Table = [Row; KEY_LEN];

/// [`DEFAULT_KEY`]'s rows, shared by every hasher.
static DEFAULT_TABLE: Table = table(&DEFAULT_KEY);

/// The 32 key bits starting at key bit `bit`, zero past the key's end.
const fn window(key: &[u8; KEY_LEN], bit: usize) -> u32 {
    let mut w = 0u32;
    let mut j = bit;
    while j < bit + 32 {
        let b = if j < KEY_LEN * 8 {
            (key[j / 8] >> (7 - j % 8)) & 1
        } else {
            0
        };
        w = (w << 1) | b as u32;
        j += 1;
    }
    w
}

/// Every input position's row for `key`.
const fn table(key: &[u8; KEY_LEN]) -> Table {
    let mut t = [[0u32; 256]; KEY_LEN];
    let mut pos = 0;
    while pos < KEY_LEN {
        // A byte's bit 7 is the position's first input bit.
        let mut bit_windows = [0u32; 8];
        let mut k = 0;
        while k < 8 {
            bit_windows[k] = window(key, pos * 8 + 7 - k);
            k += 1;
        }
        // Each value is a smaller value plus its lowest set bit.
        let mut v = 1;
        while v < 256 {
            t[pos][v] = t[pos][v & (v - 1)] ^ bit_windows[v.trailing_zeros() as usize];
            v += 1;
        }
        pos += 1;
    }
    t
}

/// The hash of `input` under the key whose rows are `rows`.
fn hash_rows(rows: &[Row], input: &[u8]) -> u32 {
    input
        .iter()
        .zip(rows)
        .fold(0, |h, (&byte, row)| h ^ row[usize::from(byte)])
}

/// A Toeplitz hasher with the [`DEFAULT_KEY`].
#[derive(Debug, Clone, Copy, Default)]
pub struct Toeplitz;

impl Toeplitz {
    /// Hashes an arbitrary input byte string.
    pub fn hash_bytes(&self, input: &[u8]) -> u32 {
        hash_rows(&DEFAULT_TABLE, input)
    }

    /// The RSS hash over an IPv4 + UDP/TCP 5-tuple: source address,
    /// destination address, source port, destination port, each big-endian.
    pub fn hash_v4(&self, flow: &FiveTuple) -> u32 {
        let mut input = [0u8; 12];
        input[0..4].copy_from_slice(&flow.src_ip.to_be_bytes());
        input[4..8].copy_from_slice(&flow.dst_ip.to_be_bytes());
        input[8..10].copy_from_slice(&flow.src_port.to_be_bytes());
        input[10..12].copy_from_slice(&flow.dst_port.to_be_bytes());
        self.hash_bytes(&input)
    }

    /// Queue selection: hash modulo the queue count (indirection tables
    /// reduce to this for a uniform table).
    pub fn queue_for(&self, flow: &FiveTuple, num_queues: u32) -> u32 {
        assert!(num_queues > 0, "a NIC has at least one queue");
        self.hash_v4(flow) % num_queues
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The bit-serial definition: a 32-bit window slides over the key one
    /// bit per input bit and is XORed in wherever the input bit is set.
    fn reference_hash(key: &[u8; KEY_LEN], input: &[u8]) -> u32 {
        let mut result: u32 = 0;
        // The sliding 32-bit window over the key, advanced bit by bit.
        let mut window = u32::from_be_bytes([key[0], key[1], key[2], key[3]]);
        let mut next_key_bit = 32; // index of the next key bit to shift in
        for &byte in input {
            for bit in (0..8).rev() {
                if (byte >> bit) & 1 == 1 {
                    result ^= window;
                }
                // Slide the window one bit left.
                let incoming = if next_key_bit < key.len() * 8 {
                    (key[next_key_bit / 8] >> (7 - (next_key_bit % 8))) & 1
                } else {
                    0
                };
                window = (window << 1) | u32::from(incoming);
                next_key_bit += 1;
            }
        }
        result
    }

    proptest! {
        /// The table hash equals the bit-serial one for any key and every
        /// input length up to 48 bytes, past the key's 40.
        #[test]
        fn table_hash_matches_bitwise_reference(
            key in prop::collection::vec(any::<u8>(), KEY_LEN),
            input in prop::collection::vec(any::<u8>(), 48),
        ) {
            let key: [u8; KEY_LEN] = key.try_into().unwrap();
            let custom = table(&key);
            for len in 0..=input.len() {
                let input = &input[..len];
                prop_assert_eq!(hash_rows(&custom, input), reference_hash(&key, input));
                prop_assert_eq!(
                    Toeplitz.hash_bytes(input),
                    reference_hash(&DEFAULT_KEY, input)
                );
            }
        }
    }

    fn ft(src: [u8; 4], sport: u16, dst: [u8; 4], dport: u16) -> FiveTuple {
        FiveTuple {
            src_ip: u32::from_be_bytes(src),
            dst_ip: u32::from_be_bytes(dst),
            src_port: sport,
            dst_port: dport,
        }
    }

    /// The IPv4-only input: addresses, no ports.
    fn ip_only(flow: &FiveTuple) -> [u8; 8] {
        let mut input = [0u8; 8];
        input[0..4].copy_from_slice(&flow.src_ip.to_be_bytes());
        input[4..8].copy_from_slice(&flow.dst_ip.to_be_bytes());
        input
    }

    // Published Microsoft RSS verification suite vectors (IPv4).
    #[test]
    fn microsoft_test_vector_1() {
        let t = Toeplitz;
        let flow = ft([66, 9, 149, 187], 2794, [161, 142, 100, 80], 1766);
        assert_eq!(t.hash_bytes(&ip_only(&flow)), 0x323e8fc2);
        assert_eq!(t.hash_v4(&flow), 0x51ccc178);
    }

    #[test]
    fn microsoft_test_vector_2() {
        let t = Toeplitz;
        let flow = ft([199, 92, 111, 2], 14230, [65, 69, 140, 83], 4739);
        assert_eq!(t.hash_bytes(&ip_only(&flow)), 0xd718262a);
        assert_eq!(t.hash_v4(&flow), 0xc626b0ea);
    }

    #[test]
    fn microsoft_test_vector_3() {
        let t = Toeplitz;
        let flow = ft([24, 19, 198, 95], 12898, [12, 22, 207, 184], 38024);
        assert_eq!(t.hash_bytes(&ip_only(&flow)), 0xd2d0a5de);
        assert_eq!(t.hash_v4(&flow), 0x5c2b394a);
    }

    #[test]
    fn hash_is_deterministic() {
        let t = Toeplitz;
        let flow = ft([10, 0, 0, 1], 1234, [10, 0, 0, 2], 80);
        assert_eq!(t.hash_v4(&flow), t.hash_v4(&flow));
    }

    #[test]
    fn queue_selection_in_range() {
        let t = Toeplitz;
        for sport in 1000..1100 {
            let flow = ft([10, 0, 0, 1], sport, [10, 0, 0, 2], 80);
            assert!(t.queue_for(&flow, 8) < 8);
        }
    }

    #[test]
    fn different_keys_give_different_hashes() {
        let input = [10, 0, 0, 1, 10, 0, 0, 2, 0x04, 0xd2, 0, 80];
        let other = table(&[0xAB; KEY_LEN]);
        assert_ne!(Toeplitz.hash_bytes(&input), hash_rows(&other, &input));
    }

    #[test]
    #[should_panic(expected = "at least one queue")]
    fn zero_queues_panics() {
        let t = Toeplitz;
        t.queue_for(&ft([1, 2, 3, 4], 1, [5, 6, 7, 8], 2), 0);
    }
}
