//! Hostile pcap input: the reader rejects malformed records with
//! `InvalidData` instead of trusting their length fields.

use std::io::ErrorKind;

use exbox::net::pcap::{PcapReader, PcapWriter};
use exbox::net::{Direction, FlowKey, Instant, Packet, Protocol};

/// Global header plus one well-formed UDP record.
fn one_packet_capture() -> Vec<u8> {
    let key = FlowKey::synthetic(1, 1, 1, Protocol::Udp);
    let pkt = Packet::new(Instant::from_millis(5), 1200, key, Direction::Downlink, 7);
    let mut w = PcapWriter::new(Vec::new()).unwrap();
    w.write_packet(&pkt).unwrap();
    w.finish().unwrap()
}

const GLOBAL_HEADER: usize = 24;
const RECORD_HEADER: usize = 16;

fn read_err(bytes: &[u8]) -> ErrorKind {
    let mut r = PcapReader::new(bytes).unwrap();
    r.read_packet().unwrap_err().kind()
}

#[test]
fn record_claiming_4_gib_is_rejected_before_allocating() {
    let mut bytes = one_packet_capture();
    bytes.truncate(GLOBAL_HEADER);
    // A bare 16-byte record header with incl_len = orig_len = 4 GiB - 1
    // and no data behind it.
    bytes.extend_from_slice(&[0u8; 8]);
    bytes.extend_from_slice(&u32::MAX.to_le_bytes());
    bytes.extend_from_slice(&u32::MAX.to_le_bytes());
    assert_eq!(bytes.len(), GLOBAL_HEADER + RECORD_HEADER);
    assert_eq!(read_err(&bytes), ErrorKind::InvalidData);
}

#[test]
fn record_longer_than_snaplen_is_rejected() {
    let mut bytes = one_packet_capture();
    let incl = u32::from_le_bytes(bytes[32..36].try_into().unwrap());
    // Shrink the snaplen below the record's length.
    bytes[16..20].copy_from_slice(&(incl - 1).to_le_bytes());
    assert_eq!(read_err(&bytes), ErrorKind::InvalidData);
    // At exactly the record's length it reads.
    bytes[16..20].copy_from_slice(&incl.to_le_bytes());
    let pkts = PcapReader::new(&bytes[..]).unwrap().read_all().unwrap();
    assert_eq!(pkts.len(), 1);
}

#[test]
fn ipv4_header_length_below_five_words_is_rejected() {
    let mut bytes = one_packet_capture();
    let ip = GLOBAL_HEADER + RECORD_HEADER;
    assert_eq!(bytes[ip], 0x45);
    // IHL = 4: a 16-byte IPv4 header would put the ports inside it.
    bytes[ip] = 0x44;
    assert_eq!(read_err(&bytes), ErrorKind::InvalidData);
}
