//! Hand-rolled RFC 4271 wire codec.
//!
//! Framing: 16-byte all-ones marker, 2-byte big-endian total length,
//! 1-byte type, then the per-type body. OPEN carries RFC 5492 capability
//! parameters (four-octet AS, graceful restart); UPDATE carries withdrawn
//! routes, a canonical attribute set (ORIGIN, AS_PATH, MED, COMMUNITIES
//! for NO_EXPORT, plus a private-use attribute for the simulator's origin
//! node), and NLRI.
//!
//! The decoder is total: every length is validated against the remaining
//! buffer before a single byte is read, so malformed or truncated input
//! returns a [`CodecError`] — it can never panic or read out of bounds.
//! This mirrors the dist-handshake rule that garbage off the wire must be
//! rejected, not trusted.

use crate::msg::{BgpMessage, Capability, NotificationMsg, OpenMsg, UpdateAttrs, UpdateMsg};
use bobw_net::{Asn, Prefix};

/// BGP protocol version carried in OPEN.
pub const BGP_VERSION: u8 = 4;
/// Header size: marker(16) + length(2) + type(1).
pub const HEADER_LEN: usize = 19;
/// RFC 4271 maximum message size.
pub const MAX_MSG_LEN: usize = 4096;
/// The 2-byte AS field placeholder when the real ASN needs four octets.
pub const AS_TRANS: u16 = 23456;

const TYPE_OPEN: u8 = 1;
const TYPE_UPDATE: u8 = 2;
const TYPE_NOTIFICATION: u8 = 3;
const TYPE_KEEPALIVE: u8 = 4;

const CAP_PARAM: u8 = 2;
const CAP_GRACEFUL_RESTART: u8 = 64;
const CAP_FOUR_OCTET_AS: u8 = 65;

const ATTR_ORIGIN: u8 = 1;
const ATTR_AS_PATH: u8 = 2;
const ATTR_MED: u8 = 4;
const ATTR_COMMUNITIES: u8 = 8;
/// Private-use attribute carrying the simulator's originating node id.
const ATTR_ORIGIN_NODE: u8 = 240;

const FLAG_OPTIONAL: u8 = 0x80;
const FLAG_TRANSITIVE: u8 = 0x40;
const FLAG_EXT_LEN: u8 = 0x10;

const NO_EXPORT_COMMUNITY: u32 = 0xFFFF_FF01;
const SEG_AS_SEQUENCE: u8 = 2;

/// Why a message failed to encode or decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Fewer bytes than a header, or a body shorter than its length field.
    Truncated,
    /// The 16-byte marker is not all ones.
    BadMarker,
    /// Length field outside `[19, 4096]`, or inconsistent with the body.
    BadLength,
    /// Unknown message type byte.
    BadType(u8),
    /// A structurally invalid field; the string names it.
    Invalid(&'static str),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "truncated message"),
            CodecError::BadMarker => write!(f, "bad marker"),
            CodecError::BadLength => write!(f, "bad length field"),
            CodecError::BadType(t) => write!(f, "unknown message type {t}"),
            CodecError::Invalid(what) => write!(f, "invalid field: {what}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Bounds-checked big-endian reader. Every accessor validates the
/// remaining length first; nothing here can slice out of range.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, CodecError> {
        let b = self.take(2)?;
        Ok(u16::from_be_bytes([b[0], b[1]]))
    }

    fn u32(&mut self) -> Result<u32, CodecError> {
        let b = self.take(4)?;
        Ok(u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
    }
}

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_be_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_be_bytes());
}

/// Reserves a 2-byte length field and returns its offset for [`patch_u16`].
fn u16_slot(out: &mut Vec<u8>) -> usize {
    let at = out.len();
    put_u16(out, 0);
    at
}

/// Back-patches the 2-byte length field at `at` with the number of bytes
/// written after it; `what` names the field if they do not fit.
fn patch_u16(out: &mut [u8], at: usize, what: &'static str) -> Result<(), CodecError> {
    let len = u16::try_from(out.len() - at - 2).map_err(|_| CodecError::Invalid(what))?;
    out[at..at + 2].copy_from_slice(&len.to_be_bytes());
    Ok(())
}

/// Capacity of the buffer [`encode`] starts from: every session message
/// and an UPDATE with a short path fit in one allocation.
const FRESH_FRAME_CAP: usize = 64;

/// Encodes one message into a fresh framed buffer (see [`encode_into`]).
pub fn encode(msg: &BgpMessage) -> Result<Vec<u8>, CodecError> {
    let mut out = Vec::with_capacity(FRESH_FRAME_CAP);
    encode_into(msg, &mut out).map(|()| out)
}

/// Encodes one message as a frame in `out`, replacing its contents. The
/// frame is written in place and its length fields are back-patched, so
/// nothing is allocated once `out` has grown to the largest frame. On
/// `Err`, `out` holds an unspecified partial frame.
///
/// Fails only on structurally unencodable input (a capability blob that
/// cannot fit its length byte, a four-octet ASN without the capability to
/// carry it, a message over the RFC size cap) — never on well-formed
/// simulator traffic.
pub fn encode_into(msg: &BgpMessage, out: &mut Vec<u8>) -> Result<(), CodecError> {
    out.clear();
    out.extend_from_slice(&[0xFF; 16]);
    put_u16(out, 0); // length, patched below
    match msg {
        BgpMessage::Open(o) => {
            out.push(TYPE_OPEN);
            encode_open(o, out)?;
        }
        BgpMessage::Update(u) => {
            out.push(TYPE_UPDATE);
            encode_update(u, out)?;
        }
        BgpMessage::Notification(n) => {
            out.push(TYPE_NOTIFICATION);
            out.push(n.code);
            out.push(n.subcode);
            out.extend_from_slice(&n.data);
        }
        BgpMessage::Keepalive => out.push(TYPE_KEEPALIVE),
    }
    if out.len() > MAX_MSG_LEN {
        return Err(CodecError::BadLength);
    }
    let len = out.len() as u16;
    out[16..18].copy_from_slice(&len.to_be_bytes());
    Ok(())
}

fn encode_open(o: &OpenMsg, out: &mut Vec<u8>) -> Result<(), CodecError> {
    out.push(BGP_VERSION);
    let has_as4 = o
        .caps
        .iter()
        .any(|c| matches!(c, Capability::FourOctetAs { asn } if *asn == o.asn));
    let short_as = match u16::try_from(o.asn) {
        Ok(v) => v,
        Err(_) if has_as4 => AS_TRANS,
        Err(_) => return Err(CodecError::Invalid("4-octet ASN without AS4 capability")),
    };
    put_u16(out, short_as);
    put_u16(out, o.hold_time_s);
    put_u32(out, o.bgp_id);
    // One capability parameter per capability, each its own opt param;
    // the parameters' total length is patched in once they are written.
    let plen_at = out.len();
    out.push(0);
    for cap in &o.caps {
        out.push(CAP_PARAM);
        match cap {
            Capability::FourOctetAs { asn } => {
                out.extend_from_slice(&[6, CAP_FOUR_OCTET_AS, 4]);
                put_u32(out, *asn);
            }
            Capability::GracefulRestart { restart_time_s } => {
                if *restart_time_s > 0x0FFF {
                    return Err(CodecError::Invalid("graceful-restart time > 4095"));
                }
                out.extend_from_slice(&[4, CAP_GRACEFUL_RESTART, 2]);
                put_u16(out, *restart_time_s);
            }
            Capability::Unknown { code, data } => {
                if data.len() > 253 {
                    return Err(CodecError::Invalid("capability value too long"));
                }
                out.extend_from_slice(&[2 + data.len() as u8, *code, data.len() as u8]);
                out.extend_from_slice(data);
            }
        }
    }
    out[plen_at] = u8::try_from(out.len() - plen_at - 1)
        .map_err(|_| CodecError::Invalid("optional parameters too long"))?;
    Ok(())
}

fn encode_prefix(p: &Prefix, out: &mut Vec<u8>) {
    let len = p.len();
    out.push(len);
    let bytes = p.bits().to_be_bytes();
    out.extend_from_slice(&bytes[..len.div_ceil(8) as usize]);
}

/// Writes an attribute header for a body of `len` bytes, switching to the
/// two-byte extended length above 255.
fn attr_header(out: &mut Vec<u8>, flags: u8, kind: u8, len: usize) -> Result<(), CodecError> {
    if len <= 255 {
        out.extend_from_slice(&[flags, kind, len as u8]);
    } else {
        let len = u16::try_from(len).map_err(|_| CodecError::Invalid("attribute too long"))?;
        out.extend_from_slice(&[flags | FLAG_EXT_LEN, kind]);
        put_u16(out, len);
    }
    Ok(())
}

fn encode_update(u: &UpdateMsg, out: &mut Vec<u8>) -> Result<(), CodecError> {
    if !u.nlri.is_empty() && u.attrs.is_none() {
        return Err(CodecError::Invalid("NLRI without path attributes"));
    }
    let wlen_at = u16_slot(out);
    for p in &u.withdrawn {
        encode_prefix(p, out);
    }
    patch_u16(out, wlen_at, "withdrawn routes too long")?;

    let alen_at = u16_slot(out);
    if let Some(a) = &u.attrs {
        attr_header(out, FLAG_TRANSITIVE, ATTR_ORIGIN, 1)?;
        out.push(0);
        // One AS_SEQUENCE segment (type, count, 4 bytes a hop) per 255 hops.
        let hops = a.as_path.len();
        attr_header(
            out,
            FLAG_TRANSITIVE,
            ATTR_AS_PATH,
            2 * hops.div_ceil(255) + 4 * hops,
        )?;
        for chunk in a.as_path.chunks(255) {
            out.extend_from_slice(&[SEG_AS_SEQUENCE, chunk.len() as u8]);
            for asn in chunk {
                put_u32(out, asn.0);
            }
        }
        attr_header(out, FLAG_OPTIONAL, ATTR_MED, 4)?;
        put_u32(out, a.med);
        if a.no_export {
            attr_header(out, FLAG_OPTIONAL | FLAG_TRANSITIVE, ATTR_COMMUNITIES, 4)?;
            put_u32(out, NO_EXPORT_COMMUNITY);
        }
        attr_header(out, FLAG_OPTIONAL | FLAG_TRANSITIVE, ATTR_ORIGIN_NODE, 4)?;
        put_u32(out, a.origin_node);
    }
    patch_u16(out, alen_at, "path attributes too long")?;
    for p in &u.nlri {
        encode_prefix(p, out);
    }
    Ok(())
}

/// Decodes one framed message from the front of `buf` (see
/// [`decode_into`]); returns the message and the number of bytes consumed.
pub fn decode(buf: &[u8]) -> Result<(BgpMessage, usize), CodecError> {
    let mut msg = BgpMessage::Keepalive;
    decode_into(buf, &mut msg).map(|len| (msg, len))
}

/// Decodes one framed message from the front of `buf` into `out` and
/// returns the number of bytes consumed. An UPDATE into an `out` that
/// already holds one refills its `Vec`s in place, so a warm buffer decodes
/// without allocating; nothing of the previous message survives, and on
/// success `out` equals what [`decode`] returns. On `Err`, `out` is left
/// valid but unspecified.
///
/// Total: never panics, never reads past `buf`, rejects every malformed
/// input with a [`CodecError`].
pub fn decode_into(buf: &[u8], out: &mut BgpMessage) -> Result<usize, CodecError> {
    if buf.len() < HEADER_LEN {
        return Err(CodecError::Truncated);
    }
    if buf[..16].iter().any(|&b| b != 0xFF) {
        return Err(CodecError::BadMarker);
    }
    let len = u16::from_be_bytes([buf[16], buf[17]]) as usize;
    if !(HEADER_LEN..=MAX_MSG_LEN).contains(&len) {
        return Err(CodecError::BadLength);
    }
    if buf.len() < len {
        return Err(CodecError::Truncated);
    }
    let kind = buf[18];
    let mut r = Reader::new(&buf[HEADER_LEN..len]);
    match kind {
        TYPE_OPEN => *out = BgpMessage::Open(decode_open(&mut r)?),
        TYPE_UPDATE => decode_update(&mut r, out.update_mut())?,
        TYPE_NOTIFICATION => {
            let code = r.u8()?;
            let subcode = r.u8()?;
            let data = r.take(r.remaining())?.to_vec();
            *out = BgpMessage::Notification(NotificationMsg {
                code,
                subcode,
                data,
            });
        }
        TYPE_KEEPALIVE => *out = BgpMessage::Keepalive,
        t => return Err(CodecError::BadType(t)),
    }
    if r.remaining() != 0 {
        return Err(CodecError::BadLength);
    }
    Ok(len)
}

fn decode_open(r: &mut Reader<'_>) -> Result<OpenMsg, CodecError> {
    if r.u8()? != BGP_VERSION {
        return Err(CodecError::Invalid("unsupported BGP version"));
    }
    let short_as = r.u16()?;
    let hold_time_s = r.u16()?;
    let bgp_id = r.u32()?;
    let plen = r.u8()? as usize;
    let mut params = Reader::new(r.take(plen)?);
    let mut caps = Vec::new();
    while params.remaining() > 0 {
        let ptype = params.u8()?;
        let pbody_len = params.u8()? as usize;
        let mut pbody = Reader::new(params.take(pbody_len)?);
        if ptype != CAP_PARAM {
            return Err(CodecError::Invalid("unknown optional parameter type"));
        }
        while pbody.remaining() > 0 {
            let code = pbody.u8()?;
            let clen = pbody.u8()? as usize;
            let value = pbody.take(clen)?;
            caps.push(match (code, clen) {
                (CAP_FOUR_OCTET_AS, 4) => Capability::FourOctetAs {
                    asn: u32::from_be_bytes([value[0], value[1], value[2], value[3]]),
                },
                (CAP_GRACEFUL_RESTART, 2) => Capability::GracefulRestart {
                    restart_time_s: u16::from_be_bytes([value[0], value[1]]) & 0x0FFF,
                },
                _ => Capability::Unknown {
                    code,
                    data: value.to_vec(),
                },
            });
        }
    }
    let asn = caps
        .iter()
        .find_map(|c| match c {
            Capability::FourOctetAs { asn } => Some(*asn),
            _ => None,
        })
        .unwrap_or(u32::from(short_as));
    Ok(OpenMsg {
        asn,
        hold_time_s,
        bgp_id,
        caps,
    })
}

fn decode_prefix(r: &mut Reader<'_>) -> Result<Prefix, CodecError> {
    let len = r.u8()?;
    if len > 32 {
        return Err(CodecError::Invalid("prefix length > 32"));
    }
    let nbytes = len.div_ceil(8) as usize;
    let raw = r.take(nbytes)?;
    let mut bits = [0u8; 4];
    bits[..nbytes].copy_from_slice(raw);
    let bits = u32::from_be_bytes(bits);
    // Strict: host bits under the mask must be zero, matching the Prefix
    // invariant — a nonzero tail means corruption, not a real route.
    if bits & !Prefix::mask(len) != 0 {
        return Err(CodecError::Invalid("prefix has nonzero host bits"));
    }
    Ok(Prefix::new(bits, len))
}

/// Bit of each attribute [`decode_update`] accepts at most once (RFC 4271
/// §6.3: a repeated attribute is a Malformed Attribute List).
fn attr_bit(kind: u8) -> u8 {
    match kind {
        ATTR_ORIGIN => 1,
        ATTR_AS_PATH => 2,
        ATTR_MED => 4,
        ATTR_COMMUNITIES => 8,
        ATTR_ORIGIN_NODE => 16,
        _ => 0,
    }
}

fn decode_update(r: &mut Reader<'_>, u: &mut UpdateMsg) -> Result<(), CodecError> {
    u.withdrawn.clear();
    u.nlri.clear();
    // Only the path buffer of the attributes `u` already holds is reused
    // (for its capacity); every other field starts from its default.
    let mut as_path = u.attrs.take().map(|a| a.as_path).unwrap_or_default();
    as_path.clear();
    let mut a = UpdateAttrs {
        as_path,
        ..UpdateAttrs::default()
    };

    let wlen = r.u16()? as usize;
    let mut wr = Reader::new(r.take(wlen)?);
    while wr.remaining() > 0 {
        u.withdrawn.push(decode_prefix(&mut wr)?);
    }
    let alen = r.u16()? as usize;
    let mut ar = Reader::new(r.take(alen)?);
    let mut seen = 0u8;
    while ar.remaining() > 0 {
        let flags = ar.u8()?;
        let kind = ar.u8()?;
        let blen = if flags & FLAG_EXT_LEN != 0 {
            ar.u16()? as usize
        } else {
            ar.u8()? as usize
        };
        let mut body = Reader::new(ar.take(blen)?);
        if seen & attr_bit(kind) != 0 {
            return Err(CodecError::Invalid("repeated path attribute"));
        }
        seen |= attr_bit(kind);
        match kind {
            ATTR_ORIGIN => {
                if blen != 1 {
                    return Err(CodecError::Invalid("ORIGIN length"));
                }
                body.u8()?;
            }
            ATTR_AS_PATH => {
                while body.remaining() > 0 {
                    if body.u8()? != SEG_AS_SEQUENCE {
                        return Err(CodecError::Invalid("AS_PATH segment type"));
                    }
                    let n = body.u8()? as usize;
                    for _ in 0..n {
                        a.as_path.push(Asn(body.u32()?));
                    }
                }
            }
            ATTR_MED => {
                if blen != 4 {
                    return Err(CodecError::Invalid("MED length"));
                }
                a.med = body.u32()?;
            }
            ATTR_COMMUNITIES => {
                if blen % 4 != 0 {
                    return Err(CodecError::Invalid("COMMUNITIES length"));
                }
                while body.remaining() > 0 {
                    if body.u32()? == NO_EXPORT_COMMUNITY {
                        a.no_export = true;
                    }
                }
            }
            ATTR_ORIGIN_NODE => {
                if blen != 4 {
                    return Err(CodecError::Invalid("origin-node length"));
                }
                a.origin_node = body.u32()?;
            }
            _ if flags & FLAG_OPTIONAL != 0 => {
                // Unknown optional attribute: skip (already consumed).
            }
            _ => return Err(CodecError::Invalid("unknown well-known attribute")),
        }
    }
    while r.remaining() > 0 {
        u.nlri.push(decode_prefix(r)?);
    }
    let mandatory = attr_bit(ATTR_ORIGIN) | attr_bit(ATTR_AS_PATH);
    if !(u.nlri.is_empty() || seen & mandatory == mandatory) {
        return Err(CodecError::Invalid("NLRI without mandatory attributes"));
    }
    // Any attribute block yields attributes, even on a pure withdrawal with
    // stray attributes; equality with a canonical encode requires attrs
    // only alongside NLRI, which `encode` enforces.
    u.attrs = (alen > 0).then_some(a);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::CEASE;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    fn rt(msg: BgpMessage) {
        let bytes = encode(&msg).unwrap();
        let (back, used) = decode(&bytes).unwrap();
        assert_eq!(used, bytes.len());
        assert_eq!(back, msg);
    }

    #[test]
    fn open_round_trips_with_capabilities() {
        rt(BgpMessage::Open(OpenMsg {
            asn: 4_200_001_234,
            hold_time_s: 90,
            bgp_id: 17,
            caps: vec![
                Capability::FourOctetAs { asn: 4_200_001_234 },
                Capability::GracefulRestart {
                    restart_time_s: 120,
                },
                Capability::Unknown {
                    code: 70,
                    data: vec![1, 2, 3],
                },
            ],
        }));
    }

    #[test]
    fn update_round_trips() {
        rt(BgpMessage::Update(UpdateMsg {
            withdrawn: vec![p("10.0.0.0/8"), p("192.168.4.0/24")],
            attrs: Some(UpdateAttrs {
                as_path: vec![Asn(65001), Asn(65001), Asn(174)],
                med: 30,
                origin_node: 12,
                no_export: true,
            }),
            nlri: vec![p("184.164.244.0/24")],
        }));
    }

    #[test]
    fn pure_withdrawal_round_trips() {
        rt(BgpMessage::Update(UpdateMsg {
            withdrawn: vec![p("184.164.244.0/23")],
            attrs: None,
            nlri: vec![],
        }));
    }

    #[test]
    fn keepalive_and_notification_round_trip() {
        rt(BgpMessage::Keepalive);
        rt(BgpMessage::Notification(NotificationMsg {
            code: CEASE,
            subcode: 2,
            data: vec![0xAB, 0xCD],
        }));
    }

    #[test]
    fn default_route_round_trips() {
        rt(BgpMessage::Update(UpdateMsg {
            withdrawn: vec![Prefix::DEFAULT],
            attrs: None,
            nlri: vec![],
        }));
    }

    #[test]
    fn rejects_bad_marker_and_truncation() {
        let good = encode(&BgpMessage::Keepalive).unwrap();
        let mut bad = good.clone();
        bad[3] = 0;
        assert_eq!(decode(&bad), Err(CodecError::BadMarker));
        for cut in 0..good.len() {
            assert!(decode(&good[..cut]).is_err(), "cut at {cut} decoded");
        }
    }

    #[test]
    fn rejects_bad_type_and_length() {
        let mut m = encode(&BgpMessage::Keepalive).unwrap();
        m[18] = 9;
        assert_eq!(decode(&m), Err(CodecError::BadType(9)));
        let mut m = encode(&BgpMessage::Keepalive).unwrap();
        m[17] = 18; // length below the header floor
        assert_eq!(decode(&m), Err(CodecError::BadLength));
    }

    #[test]
    fn rejects_nonzero_host_bits() {
        // 10.0.0.1/8 is not a valid masked prefix.
        let msg = BgpMessage::Update(UpdateMsg {
            withdrawn: vec![p("10.0.0.0/8")],
            attrs: None,
            nlri: vec![],
        });
        let mut bytes = encode(&msg).unwrap();
        // withdrawn block: [len=8, 0x0A]; extend the wire manually is
        // fiddly, so corrupt the network byte below the mask instead:
        // /8 keeps one byte; flip the length to /4 so bits 0x0A gain a tail.
        let start = HEADER_LEN + 2;
        bytes[start] = 4;
        assert!(decode(&bytes).is_err());
    }

    /// A hand-built UPDATE frame: no withdrawals, the raw attribute block
    /// `attrs`, and NLRI 10.0.0.0/8.
    fn update_frame(attrs: &[&[u8]]) -> Vec<u8> {
        let attrs = attrs.concat();
        let mut out = vec![0xFF; 16];
        put_u16(&mut out, (HEADER_LEN + 4 + attrs.len() + 2) as u16);
        out.push(TYPE_UPDATE);
        put_u16(&mut out, 0);
        put_u16(&mut out, attrs.len() as u16);
        out.extend_from_slice(&attrs);
        out.extend_from_slice(&[8, 10]);
        out
    }

    const ORIGIN: &[u8] = &[FLAG_TRANSITIVE, ATTR_ORIGIN, 1, 0];
    #[rustfmt::skip]
    const PATH_7_9: &[u8] = &[
        FLAG_TRANSITIVE, ATTR_AS_PATH, 10,
        SEG_AS_SEQUENCE, 2, 0, 0, 0, 7, 0, 0, 0, 9,
    ];
    const MED_5: &[u8] = &[FLAG_OPTIONAL, ATTR_MED, 4, 0, 0, 0, 5];

    #[test]
    fn hand_built_update_decodes() {
        let (msg, _) = decode(&update_frame(&[ORIGIN, PATH_7_9, MED_5])).unwrap();
        let BgpMessage::Update(u) = msg else {
            panic!("not an UPDATE")
        };
        let a = u.attrs.unwrap();
        assert_eq!(a.as_path, vec![Asn(7), Asn(9)]);
        assert_eq!(a.med, 5);
        assert_eq!(u.nlri, vec![p("10.0.0.0/8")]);
    }

    /// The simulator's encoder always writes MED and the origin node, so
    /// only a hand-built frame can omit them: decoding one into a buffer
    /// that holds them must not keep the old values.
    #[test]
    fn decode_into_resets_attributes_the_frame_omits() {
        let mut out = BgpMessage::Update(UpdateMsg {
            withdrawn: vec![p("192.168.0.0/16")],
            attrs: Some(UpdateAttrs {
                as_path: vec![Asn(1), Asn(2), Asn(3)],
                med: 30,
                origin_node: 12,
                no_export: true,
            }),
            nlri: vec![p("172.16.0.0/12")],
        });
        let frame = update_frame(&[ORIGIN, PATH_7_9]);
        assert_eq!(decode_into(&frame, &mut out), Ok(frame.len()));
        assert_eq!(out, decode(&frame).unwrap().0);
    }

    #[test]
    fn repeated_attributes_are_malformed() {
        let repeated = CodecError::Invalid("repeated path attribute");
        for attrs in [
            [ORIGIN, PATH_7_9, PATH_7_9, MED_5],
            [ORIGIN, PATH_7_9, MED_5, MED_5],
            [ORIGIN, ORIGIN, PATH_7_9, MED_5],
        ] {
            assert_eq!(decode(&update_frame(&attrs)), Err(repeated.clone()));
        }
    }

    #[test]
    fn as_trans_without_capability_is_rejected_on_encode() {
        let e = encode(&BgpMessage::Open(OpenMsg {
            asn: 70_000,
            hold_time_s: 90,
            bgp_id: 1,
            caps: vec![],
        }));
        assert!(e.is_err());
    }
}
