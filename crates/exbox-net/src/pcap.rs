//! Classic-format pcap trace I/O.
//!
//! The paper's methodology leans on `tcpdump` captures and
//! `tcpreplay` injection (§5.1, §6.2). This module provides the
//! equivalent: datapath [`Packet`] records can be dumped to a
//! libpcap-classic file and read back. Files use the nanosecond magic
//! (`0xa1b23c4d`) to preserve full [`Instant`] resolution and
//! `LINKTYPE_RAW` (101) frames: a bare IPv4 header plus UDP/TCP
//! header, snap-length captured (payload bytes are not materialised;
//! the original length rides in `orig_len` / the IP total-length
//! field, exactly like a `tcpdump -s 64` capture).
//!
//! Conventions for round-tripping datapath metadata:
//!
//! * the client side of a [`FlowKey`] is whichever endpoint lies in
//!   `10.0.0.0/8` (the synthetic client range); packets sourced there
//!   are uplink,
//! * the low 16 bits of the per-flow sequence number ride in the IPv4
//!   identification field (higher bits are not representable and are
//!   lost on round-trip).

use std::io::{self, Read, Write};
use std::net::Ipv4Addr;

use crate::packet::{Direction, FlowKey, Packet, Protocol};
use crate::time::Instant;

/// Nanosecond-resolution classic pcap magic.
const MAGIC_NS: u32 = 0xa1b2_3c4d;
/// Microsecond-resolution magic (accepted on read).
const MAGIC_US: u32 = 0xa1b2_c3d4;
/// LINKTYPE_RAW: packets start with the IPv4 header.
const LINKTYPE_RAW: u32 = 101;
const IPV4_HEADER_LEN: usize = 20;
const UDP_HEADER_LEN: usize = 8;
const TCP_HEADER_LEN: usize = 20;
/// Largest record the reader allocates for, whatever the snaplen says
/// (libpcap's own ceiling for a classic capture).
const MAX_RECORD_LEN: usize = 256 * 1024;

/// Streaming pcap writer.
#[derive(Debug)]
pub struct PcapWriter<W: Write> {
    out: W,
}

impl<W: Write> PcapWriter<W> {
    /// Create a writer and emit the global header.
    pub fn new(mut out: W) -> io::Result<Self> {
        out.write_all(&MAGIC_NS.to_le_bytes())?;
        out.write_all(&2u16.to_le_bytes())?; // version major
        out.write_all(&4u16.to_le_bytes())?; // version minor
        out.write_all(&0i32.to_le_bytes())?; // thiszone
        out.write_all(&0u32.to_le_bytes())?; // sigfigs
        out.write_all(&65_535u32.to_le_bytes())?; // snaplen
        out.write_all(&LINKTYPE_RAW.to_le_bytes())?;
        Ok(PcapWriter { out })
    }

    /// Append one packet record.
    pub fn write_packet(&mut self, pkt: &Packet) -> io::Result<()> {
        let headers = synthesize_headers(pkt);
        let ns = pkt.timestamp.as_nanos();
        let (sec, nsec) = ((ns / 1_000_000_000) as u32, (ns % 1_000_000_000) as u32);
        self.out.write_all(&sec.to_le_bytes())?;
        self.out.write_all(&nsec.to_le_bytes())?;
        self.out.write_all(&(headers.len() as u32).to_le_bytes())?;
        // orig_len carries the true on-wire size (snap capture).
        let orig = (pkt.size as usize).max(headers.len()) as u32;
        self.out.write_all(&orig.to_le_bytes())?;
        self.out.write_all(&headers)?;
        Ok(())
    }

    /// Flush and return the underlying writer.
    pub fn finish(mut self) -> io::Result<W> {
        self.out.flush()?;
        Ok(self.out)
    }
}

/// Build the snap-captured header bytes for a packet.
fn synthesize_headers(pkt: &Packet) -> Vec<u8> {
    let (src, dst, sport, dport) = match pkt.direction {
        Direction::Uplink => (
            pkt.flow.client_ip,
            pkt.flow.server_ip,
            pkt.flow.client_port,
            pkt.flow.server_port,
        ),
        Direction::Downlink => (
            pkt.flow.server_ip,
            pkt.flow.client_ip,
            pkt.flow.server_port,
            pkt.flow.client_port,
        ),
    };
    let transport_len = match pkt.flow.protocol {
        Protocol::Udp => UDP_HEADER_LEN,
        Protocol::Tcp => TCP_HEADER_LEN,
    };
    let mut buf = Vec::with_capacity(IPV4_HEADER_LEN + transport_len);

    // --- IPv4 header ---
    buf.push(0x45); // version 4, IHL 5
    buf.push(0); // DSCP/ECN
    let total_len = (pkt.size as usize).max(IPV4_HEADER_LEN + transport_len) as u16;
    buf.extend_from_slice(&total_len.to_be_bytes());
    buf.extend_from_slice(&(pkt.seq as u16).to_be_bytes()); // identification
    buf.extend_from_slice(&0u16.to_be_bytes()); // flags/fragment
    buf.push(64); // TTL
    buf.push(pkt.flow.protocol.ip_proto());
    buf.extend_from_slice(&0u16.to_be_bytes()); // checksum placeholder
    buf.extend_from_slice(&src.octets());
    buf.extend_from_slice(&dst.octets());
    // Fill in the header checksum.
    let csum = ipv4_checksum(&buf[..IPV4_HEADER_LEN]);
    buf[10..12].copy_from_slice(&csum.to_be_bytes());

    // --- transport header ---
    match pkt.flow.protocol {
        Protocol::Udp => {
            buf.extend_from_slice(&sport.to_be_bytes());
            buf.extend_from_slice(&dport.to_be_bytes());
            let udp_len = (total_len as usize - IPV4_HEADER_LEN) as u16;
            buf.extend_from_slice(&udp_len.to_be_bytes());
            buf.extend_from_slice(&0u16.to_be_bytes()); // checksum omitted
        }
        Protocol::Tcp => {
            buf.extend_from_slice(&sport.to_be_bytes());
            buf.extend_from_slice(&dport.to_be_bytes());
            buf.extend_from_slice(&(pkt.seq as u32).to_be_bytes()); // seq
            buf.extend_from_slice(&0u32.to_be_bytes()); // ack
            buf.push(0x50); // data offset 5
            buf.push(0x10); // ACK flag
            buf.extend_from_slice(&0xFFFFu16.to_be_bytes()); // window
            buf.extend_from_slice(&0u16.to_be_bytes()); // checksum
            buf.extend_from_slice(&0u16.to_be_bytes()); // urgent
        }
    }
    buf
}

/// RFC 1071 internet checksum over a header slice.
fn ipv4_checksum(header: &[u8]) -> u16 {
    let mut sum = 0u32;
    for chunk in header.chunks(2) {
        let word = if chunk.len() == 2 {
            u16::from_be_bytes([chunk[0], chunk[1]])
        } else {
            u16::from_be_bytes([chunk[0], 0])
        };
        sum += word as u32;
    }
    while sum >> 16 != 0 {
        sum = (sum & 0xFFFF) + (sum >> 16);
    }
    !(sum as u16)
}

/// Streaming pcap reader for files produced by [`PcapWriter`] (and
/// any LINKTYPE_RAW classic capture with IPv4 + UDP/TCP packets).
#[derive(Debug)]
pub struct PcapReader<R: Read> {
    input: R,
    ns_resolution: bool,
    /// Largest acceptable `incl_len`: the global header's snaplen,
    /// capped at [`MAX_RECORD_LEN`].
    max_record: usize,
}

impl<R: Read> PcapReader<R> {
    /// Open a reader, validating the global header.
    ///
    /// # Errors
    /// Returns `InvalidData` on a bad magic or non-RAW link type.
    pub fn new(mut input: R) -> io::Result<Self> {
        let mut hdr = [0u8; 24];
        input.read_exact(&mut hdr)?;
        let magic = u32::from_le_bytes([hdr[0], hdr[1], hdr[2], hdr[3]]);
        let ns_resolution = match magic {
            MAGIC_NS => true,
            MAGIC_US => false,
            _ => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("unsupported pcap magic {magic:#x}"),
                ))
            }
        };
        let linktype = u32::from_le_bytes([hdr[20], hdr[21], hdr[22], hdr[23]]);
        if linktype != LINKTYPE_RAW {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unsupported link type {linktype} (want LINKTYPE_RAW)"),
            ));
        }
        let snaplen = u32::from_le_bytes([hdr[16], hdr[17], hdr[18], hdr[19]]) as usize;
        Ok(PcapReader {
            input,
            ns_resolution,
            max_record: snaplen.min(MAX_RECORD_LEN),
        })
    }

    /// Read the next packet; `Ok(None)` at clean EOF.
    ///
    /// # Errors
    /// `InvalidData` for malformed records or unsupported protocols,
    /// including a record longer than the snaplen (checked before any
    /// allocation) and an IPv4 header length below 20 bytes.
    pub fn read_packet(&mut self) -> io::Result<Option<Packet>> {
        let mut rec = [0u8; 16];
        match self.input.read_exact(&mut rec) {
            Ok(()) => {}
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
            Err(e) => return Err(e),
        }
        let sec = u32::from_le_bytes([rec[0], rec[1], rec[2], rec[3]]) as u64;
        let frac = u32::from_le_bytes([rec[4], rec[5], rec[6], rec[7]]) as u64;
        let incl = u32::from_le_bytes([rec[8], rec[9], rec[10], rec[11]]) as usize;
        let orig = u32::from_le_bytes([rec[12], rec[13], rec[14], rec[15]]);
        let nanos = sec * 1_000_000_000
            + if self.ns_resolution {
                frac
            } else {
                frac * 1_000
            };

        let bad = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg.to_string());
        if incl > self.max_record {
            return Err(bad("record longer than the capture's snaplen"));
        }
        let mut data = vec![0u8; incl];
        self.input.read_exact(&mut data)?;
        if data.len() < IPV4_HEADER_LEN || data[0] >> 4 != 4 {
            return Err(bad("not an IPv4 packet"));
        }
        let ihl = ((data[0] & 0x0F) as usize) * 4;
        if ihl < IPV4_HEADER_LEN {
            return Err(bad("IPv4 header length below 20 bytes"));
        }
        if data.len() < ihl + 4 {
            return Err(bad("truncated transport header"));
        }
        let proto = Protocol::from_ip_proto(data[9]).ok_or_else(|| bad("unsupported protocol"))?;
        let ident = u16::from_be_bytes([data[4], data[5]]);
        let src = Ipv4Addr::new(data[12], data[13], data[14], data[15]);
        let dst = Ipv4Addr::new(data[16], data[17], data[18], data[19]);
        let sport = u16::from_be_bytes([data[ihl], data[ihl + 1]]);
        let dport = u16::from_be_bytes([data[ihl + 2], data[ihl + 3]]);

        // Client-side convention: 10.0.0.0/8 addresses are clients.
        let (direction, flow) = if src.octets()[0] == 10 {
            (
                Direction::Uplink,
                FlowKey::new(src, sport, dst, dport, proto),
            )
        } else {
            (
                Direction::Downlink,
                FlowKey::new(dst, dport, src, sport, proto),
            )
        };
        Ok(Some(Packet {
            timestamp: Instant::from_nanos(nanos),
            size: orig,
            flow,
            direction,
            seq: ident as u64,
        }))
    }

    /// Collect all remaining packets.
    pub fn read_all(&mut self) -> io::Result<Vec<Packet>> {
        let mut out = Vec::new();
        while let Some(p) = self.read_packet()? {
            out.push(p);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_packets() -> Vec<Packet> {
        let udp = FlowKey::synthetic(3, 7, 1, Protocol::Udp);
        let tcp = FlowKey::synthetic(4, 8, 2, Protocol::Tcp);
        vec![
            Packet::new(
                Instant::from_nanos(123_456_789),
                1400,
                udp,
                Direction::Downlink,
                5,
            ),
            Packet::new(Instant::from_millis(200), 60, udp, Direction::Uplink, 6),
            Packet::new(Instant::from_secs(3), 900, tcp, Direction::Downlink, 7),
        ]
    }

    fn roundtrip(pkts: &[Packet]) -> Vec<Packet> {
        let mut w = PcapWriter::new(Vec::new()).unwrap();
        for p in pkts {
            w.write_packet(p).unwrap();
        }
        let bytes = w.finish().unwrap();
        PcapReader::new(&bytes[..]).unwrap().read_all().unwrap()
    }

    #[test]
    fn roundtrip_preserves_metadata() {
        let pkts = sample_packets();
        let back = roundtrip(&pkts);
        assert_eq!(back.len(), pkts.len());
        for (a, b) in pkts.iter().zip(&back) {
            assert_eq!(a.timestamp, b.timestamp, "timestamp");
            assert_eq!(a.size, b.size, "size");
            assert_eq!(a.flow, b.flow, "flow key");
            assert_eq!(a.direction, b.direction, "direction");
            assert_eq!(a.seq & 0xFFFF, b.seq, "sequence (low 16 bits)");
        }
    }

    #[test]
    fn global_header_is_valid_classic_pcap() {
        let w = PcapWriter::new(Vec::new()).unwrap();
        let bytes = w.finish().unwrap();
        assert_eq!(bytes.len(), 24);
        assert_eq!(
            u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]),
            MAGIC_NS
        );
        assert_eq!(u16::from_le_bytes([bytes[4], bytes[5]]), 2);
        assert_eq!(u16::from_le_bytes([bytes[6], bytes[7]]), 4);
    }

    #[test]
    fn checksum_matches_reference_vector() {
        // Reference example from RFC 1071 discussions: a known header.
        let mut hdr = vec![
            0x45, 0x00, 0x00, 0x73, 0x00, 0x00, 0x40, 0x00, 0x40, 0x11, 0x00, 0x00, 0xc0, 0xa8,
            0x00, 0x01, 0xc0, 0xa8, 0x00, 0xc7,
        ];
        let sum = ipv4_checksum(&hdr);
        assert_eq!(sum, 0xb861);
        // Verifying: with the checksum in place, the sum is zero.
        hdr[10..12].copy_from_slice(&sum.to_be_bytes());
        assert_eq!(ipv4_checksum(&hdr), 0);
    }

    #[test]
    fn written_ipv4_checksum_validates() {
        let p = sample_packets()[0];
        let hdr = synthesize_headers(&p);
        assert_eq!(ipv4_checksum(&hdr[..IPV4_HEADER_LEN]), 0);
    }

    #[test]
    fn bad_magic_rejected() {
        let bytes = [0u8; 24];
        let err = PcapReader::new(&bytes[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn truncated_record_is_error() {
        let mut w = PcapWriter::new(Vec::new()).unwrap();
        w.write_packet(&sample_packets()[0]).unwrap();
        let mut bytes = w.finish().unwrap();
        bytes.truncate(bytes.len() - 3);
        let mut r = PcapReader::new(&bytes[..]).unwrap();
        assert!(r.read_packet().is_err());
    }

    #[test]
    fn empty_capture_reads_empty() {
        let w = PcapWriter::new(Vec::new()).unwrap();
        let bytes = w.finish().unwrap();
        let pkts = PcapReader::new(&bytes[..]).unwrap().read_all().unwrap();
        assert!(pkts.is_empty());
    }

    #[test]
    fn small_packet_size_clamps_to_header_length() {
        // A 10-byte "packet" can't be smaller than its headers; the
        // writer clamps orig_len so the file stays self-consistent.
        let key = FlowKey::synthetic(1, 1, 1, Protocol::Udp);
        let p = Packet::new(Instant::ZERO, 10, key, Direction::Uplink, 0);
        let mut w = PcapWriter::new(Vec::new()).unwrap();
        w.write_packet(&p).unwrap();
        let bytes = w.finish().unwrap();
        let back = PcapReader::new(&bytes[..]).unwrap().read_all().unwrap();
        assert_eq!(back[0].size as usize, IPV4_HEADER_LEN + UDP_HEADER_LEN);
    }
}
