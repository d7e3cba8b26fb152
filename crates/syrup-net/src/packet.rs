//! On-the-wire packet formats.
//!
//! Frames are Ethernet II / IPv4 / UDP in network byte order, followed by
//! the benchmark application header. Syrup policies at XDP hooks see the
//! whole frame; at the socket-select hook they see the datagram starting
//! at the UDP header, which is why the paper's SITA policy reads the
//! request type at `pkt + 8` ("First 8 bytes are UDP header", Figure 5d).
//!
//! Application header layout (all little-endian, host order, as an
//! application struct would be):
//!
//! | offset in datagram | field      | size |
//! |--------------------|------------|------|
//! | 8                  | `req_type` | u64  |
//! | 16                 | `user_id`  | u32  |
//! | 20                 | `key_hash` | u64  |
//! | 28                 | `req_id`   | u64  |

use crate::flow::FiveTuple;

/// Ethernet header length.
pub const ETH_LEN: usize = 14;
/// IPv4 header length (no options).
pub const IPV4_LEN: usize = 20;
/// UDP header length.
pub const UDP_LEN: usize = 8;
/// Application header length.
pub const APP_LEN: usize = 36;
/// Offset of the UDP header within a frame.
pub const UDP_OFF: usize = ETH_LEN + IPV4_LEN;
/// Total frame length produced by [`Frame::build`].
pub const FRAME_LEN: usize = UDP_OFF + UDP_LEN + APP_LEN;

/// Request classes used across the benchmarks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RequestClass {
    /// Short point lookup (10–12µs service time in the RocksDB model).
    Get,
    /// Long range scan (~700µs).
    Scan,
    /// MICA write.
    Put,
}

impl RequestClass {
    /// Wire encoding of the class.
    pub fn code(self) -> u64 {
        match self {
            RequestClass::Get => 1,
            RequestClass::Scan => 2,
            RequestClass::Put => 3,
        }
    }

    /// Decodes a wire value.
    pub fn from_code(code: u64) -> Option<RequestClass> {
        match code {
            1 => Some(RequestClass::Get),
            2 => Some(RequestClass::Scan),
            3 => Some(RequestClass::Put),
            _ => None,
        }
    }

    /// Class id used with `syrup_sim::RequestMix` (dense small integers).
    pub fn class_id(self) -> u32 {
        match self {
            RequestClass::Get => 0,
            RequestClass::Scan => 1,
            RequestClass::Put => 2,
        }
    }
}

/// The benchmark application header carried in every request datagram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AppHeader {
    /// Request class (`RequestClass::code`).
    pub req_type: u64,
    /// Issuing user/tenant (the token policy's key).
    pub user_id: u32,
    /// MICA-style key hash for home-core steering.
    pub key_hash: u64,
    /// Unique request id, used by the harness to match completions.
    pub req_id: u64,
}

/// A full Ethernet/IPv4/UDP frame, held inline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    bytes: [u8; FRAME_LEN],
}

impl Frame {
    /// Builds a frame for `flow` carrying `app`.
    pub fn build(flow: &FiveTuple, app: &AppHeader) -> Frame {
        let mut bytes = [0; FRAME_LEN];
        Frame::write(&mut bytes, flow, app);
        Frame { bytes }
    }

    /// Writes the frame [`Frame::build`] returns into `out`, every byte
    /// of it: a per-request path keeps its packet on the stack.
    pub fn write(out: &mut [u8; FRAME_LEN], flow: &FiveTuple, app: &AppHeader) {
        let mut at = 0;
        let mut put = |field: &[u8]| {
            out[at..at + field.len()].copy_from_slice(field);
            at += field.len();
        };
        // Ethernet II: dst MAC, src MAC, ethertype IPv4.
        put(&[0x02, 0, 0, 0, 0, 0x01]);
        put(&[0x02, 0, 0, 0, 0, 0x02]);
        put(&0x0800u16.to_be_bytes());
        // IPv4 header (big-endian fields, no options).
        put(&[0x45, 0]); // version 4, IHL 5; DSCP/ECN
        put(&((IPV4_LEN + UDP_LEN + APP_LEN) as u16).to_be_bytes());
        put(&0u16.to_be_bytes()); // identification
        put(&0x4000u16.to_be_bytes()); // don't fragment
        put(&[64, 17]); // TTL; protocol UDP
        put(&0u16.to_be_bytes()); // checksum filled below
        put(&flow.src_ip.to_be_bytes());
        put(&flow.dst_ip.to_be_bytes());
        // UDP header.
        put(&flow.src_port.to_be_bytes());
        put(&flow.dst_port.to_be_bytes());
        put(&((UDP_LEN + APP_LEN) as u16).to_be_bytes());
        // UDP checksum: optional over IPv4.
        put(&0u16.to_be_bytes());
        // Application header (host little-endian, like a C struct), padded
        // to APP_LEN.
        put(&app.req_type.to_le_bytes());
        put(&app.user_id.to_le_bytes());
        put(&app.key_hash.to_le_bytes());
        put(&app.req_id.to_le_bytes());
        put(&[0; APP_LEN - 28]);
        debug_assert_eq!(at, FRAME_LEN);
        let csum = ipv4_checksum(&out[ETH_LEN..UDP_OFF]);
        out[ETH_LEN + 10..ETH_LEN + 12].copy_from_slice(&csum.to_be_bytes());
    }

    /// The raw frame bytes (what XDP hooks see).
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Mutable frame bytes for policies that rewrite packets.
    pub fn bytes_mut(&mut self) -> &mut [u8] {
        &mut self.bytes
    }

    /// The datagram starting at the UDP header (what the socket-select
    /// hook sees).
    pub fn datagram(&self) -> &[u8] {
        &self.bytes[UDP_OFF..]
    }

    /// Mutable datagram view.
    pub fn datagram_mut(&mut self) -> &mut [u8] {
        &mut self.bytes[UDP_OFF..]
    }

    /// Parses the 5-tuple back out of the frame.
    pub fn five_tuple(&self) -> Option<FiveTuple> {
        let b = &self.bytes;
        if b[12] != 0x08 || b[13] != 0x00 {
            return None;
        }
        if b[ETH_LEN] >> 4 != 4 || b[ETH_LEN + 9] != 17 {
            return None;
        }
        Some(FiveTuple {
            src_ip: u32::from_be_bytes(b[ETH_LEN + 12..ETH_LEN + 16].try_into().ok()?),
            dst_ip: u32::from_be_bytes(b[ETH_LEN + 16..ETH_LEN + 20].try_into().ok()?),
            src_port: u16::from_be_bytes(b[UDP_OFF..UDP_OFF + 2].try_into().ok()?),
            dst_port: u16::from_be_bytes(b[UDP_OFF + 2..UDP_OFF + 4].try_into().ok()?),
        })
    }

    /// Parses the application header.
    pub fn app_header(&self) -> Option<AppHeader> {
        parse_app_header(self.datagram())
    }
}

/// Parses the application header from a datagram (UDP header + payload).
pub fn parse_app_header(datagram: &[u8]) -> Option<AppHeader> {
    if datagram.len() < UDP_LEN + 28 {
        return None;
    }
    let p = &datagram[UDP_LEN..];
    Some(AppHeader {
        req_type: u64::from_le_bytes(p[0..8].try_into().ok()?),
        user_id: u32::from_le_bytes(p[8..12].try_into().ok()?),
        key_hash: u64::from_le_bytes(p[12..20].try_into().ok()?),
        req_id: u64::from_le_bytes(p[20..28].try_into().ok()?),
    })
}

/// RFC 1071 internet checksum over an IPv4 header.
fn ipv4_checksum(header: &[u8]) -> u16 {
    let mut sum: u32 = 0;
    for chunk in header.chunks(2) {
        let word = if chunk.len() == 2 {
            u32::from(u16::from_be_bytes([chunk[0], chunk[1]]))
        } else {
            u32::from(chunk[0]) << 8
        };
        sum += word;
    }
    // The checksum field itself (bytes 10-11) must be treated as zero; the
    // caller zeroes it before calling.
    while sum >> 16 != 0 {
        sum = (sum & 0xFFFF) + (sum >> 16);
    }
    !(sum as u16)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample_flow() -> FiveTuple {
        FiveTuple {
            src_ip: u32::from_be_bytes([10, 0, 0, 1]),
            dst_ip: u32::from_be_bytes([10, 0, 0, 2]),
            src_port: 40000,
            dst_port: 8080,
        }
    }

    fn sample_app() -> AppHeader {
        AppHeader {
            req_type: RequestClass::Scan.code(),
            user_id: 7,
            key_hash: 0xDEAD_BEEF,
            req_id: 1234,
        }
    }

    /// `Frame::build` of the two flows below, as the byte-vector builder
    /// this one replaced produced them (IPv4 checksum included).
    const GOLDEN: [[u8; FRAME_LEN]; 2] = [
        [
            0x02, 0x00, 0x00, 0x00, 0x00, 0x01, 0x02, 0x00, 0x00, 0x00, 0x00, 0x02, 0x08, 0x00,
            0x45, 0x00, 0x00, 0x40, 0x00, 0x00, 0x40, 0x00, 0x40, 0x11, 0x26, 0xab, 0x0a, 0x00,
            0x00, 0x01, 0x0a, 0x00, 0x00, 0x02, 0x9c, 0x40, 0x1f, 0x90, 0x00, 0x2c, 0x00, 0x00,
            0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x07, 0x00, 0x00, 0x00, 0xef, 0xbe,
            0xad, 0xde, 0x00, 0x00, 0x00, 0x00, 0xd2, 0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
            0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        ],
        [
            0x02, 0x00, 0x00, 0x00, 0x00, 0x01, 0x02, 0x00, 0x00, 0x00, 0x00, 0x02, 0x08, 0x00,
            0x45, 0x00, 0x00, 0x40, 0x00, 0x00, 0x40, 0x00, 0x40, 0x11, 0xcd, 0xf4, 0xc0, 0xa8,
            0xff, 0xfe, 0xac, 0x10, 0x00, 0x01, 0xff, 0xff, 0x00, 0x01, 0x00, 0x2c, 0x00, 0x00,
            0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01, 0xfe, 0xff, 0xff, 0xff, 0xff, 0xff,
            0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x80,
            0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        ],
    ];

    #[test]
    fn build_matches_golden_bytes() {
        let edge_flow = FiveTuple {
            src_ip: u32::from_be_bytes([192, 168, 255, 254]),
            dst_ip: u32::from_be_bytes([172, 16, 0, 1]),
            src_port: 65535,
            dst_port: 1,
        };
        let edge_app = AppHeader {
            req_type: 0x0102_0304_0506_0708,
            user_id: 0xFFFF_FFFE,
            key_hash: u64::MAX,
            req_id: 0x8000_0000_0000_0001,
        };
        let pairs = [(sample_flow(), sample_app()), (edge_flow, edge_app)];
        for ((flow, app), golden) in pairs.iter().zip(&GOLDEN) {
            assert_eq!(Frame::build(flow, app).bytes(), golden);
        }
    }

    proptest! {
        /// The writer overwrites every byte of a dirty buffer with exactly
        /// what `Frame::build` holds.
        #[test]
        fn writer_matches_build_over_a_dirty_buffer(
            (src_ip, dst_ip, src_port, dst_port) in (any::<u32>(), any::<u32>(), any::<u16>(), any::<u16>()),
            (req_type, user_id, key_hash, req_id) in (any::<u64>(), any::<u32>(), any::<u64>(), any::<u64>()),
            junk in any::<u8>(),
        ) {
            let flow = FiveTuple { src_ip, dst_ip, src_port, dst_port };
            let app = AppHeader { req_type, user_id, key_hash, req_id };
            let mut out = [junk; FRAME_LEN];
            Frame::write(&mut out, &flow, &app);
            let built = Frame::build(&flow, &app);
            prop_assert_eq!(&out[UDP_OFF..], built.datagram());
            prop_assert_eq!(&out[..], built.bytes());
        }
    }

    #[test]
    fn build_parse_round_trip() {
        let frame = Frame::build(&sample_flow(), &sample_app());
        assert_eq!(frame.bytes().len(), FRAME_LEN);
        assert_eq!(frame.five_tuple().unwrap(), sample_flow());
        assert_eq!(frame.app_header().unwrap(), sample_app());
    }

    #[test]
    fn datagram_starts_at_udp_header() {
        let frame = Frame::build(&sample_flow(), &sample_app());
        let dg = frame.datagram();
        // First two bytes are the big-endian source port.
        assert_eq!(u16::from_be_bytes([dg[0], dg[1]]), 40000);
        // The paper's SITA policy reads the type at pkt + 8.
        assert_eq!(
            u64::from_le_bytes(dg[8..16].try_into().unwrap()),
            RequestClass::Scan.code()
        );
    }

    #[test]
    fn ipv4_checksum_validates() {
        let frame = Frame::build(&sample_flow(), &sample_app());
        // Recomputing over the header with the stored checksum yields 0.
        let hdr = &frame.bytes()[ETH_LEN..ETH_LEN + IPV4_LEN];
        let mut sum: u32 = 0;
        for chunk in hdr.chunks(2) {
            sum += u32::from(u16::from_be_bytes([chunk[0], chunk[1]]));
        }
        while sum >> 16 != 0 {
            sum = (sum & 0xFFFF) + (sum >> 16);
        }
        assert_eq!(sum as u16, 0xFFFF);
    }

    #[test]
    fn request_class_codes_round_trip() {
        for c in [RequestClass::Get, RequestClass::Scan, RequestClass::Put] {
            assert_eq!(RequestClass::from_code(c.code()), Some(c));
        }
        assert_eq!(RequestClass::from_code(0), None);
        assert_eq!(RequestClass::from_code(99), None);
    }

    #[test]
    fn short_datagram_has_no_app_header() {
        assert_eq!(parse_app_header(&[0u8; 10]), None);
    }

    #[test]
    fn malformed_frames_fail_parsing() {
        let mut frame = Frame::build(&sample_flow(), &sample_app());
        frame.bytes_mut()[12] = 0x86; // not IPv4 ethertype
        assert_eq!(frame.five_tuple(), None);

        let mut frame = Frame::build(&sample_flow(), &sample_app());
        frame.bytes_mut()[ETH_LEN + 9] = 6; // TCP, not UDP
        assert_eq!(frame.five_tuple(), None);
    }
}
