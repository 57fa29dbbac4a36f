//! The wire codec: a compact, deterministic binary encoding plus a
//! length-prefixed frame layer.
//!
//! Binary is for three things: the framing, the protocol messages, and the
//! cell results. Results need two properties JSON does not have: `f64`
//! keeps its exact bit pattern (the JSON renderer writes non-finite floats
//! as `null`, and distributed results must be byte-identical to local
//! ones), and every length is bounded before anything is allocated for it.
//! Experiment configs are the exception: they travel as one length-prefixed
//! string holding their canonical JSON (see `proto`), so a new config knob
//! needs no encoder here. Encoding rules:
//!
//! - fixed-width integers are little-endian;
//! - `usize` travels as `u64` (checked on decode);
//! - `f64` travels as its IEEE-754 bit pattern (`to_bits`), so values
//!   round-trip *exactly* — a requirement for byte-identical results;
//! - `String`/`Vec` are a `u64` length followed by the elements;
//! - `Option` is a presence byte followed by the value; `Box` is its value;
//! - structs are their fields in declaration order (see [`wire_struct!`]);
//! - enums are a `u32` discriminant, the variant's declaration index,
//!   followed by the variant's fields (see [`wire_enum!`]).
//!
//! Frames are `u32` little-endian payload length + payload, capped at
//! [`MAX_FRAME`] so a corrupt or hostile peer cannot make the receiver
//! allocate unbounded memory. Truncated and oversized frames surface as
//! typed errors (exercised by the codec tests).

use std::fmt;
use std::io::{self, Read, Write};

/// Upper bound on a frame payload. A full eval-scale cell result is well
/// under 1 MiB; 64 MiB leaves room for large-scale grids while still
/// rejecting garbage length prefixes.
pub const MAX_FRAME: usize = 64 * 1024 * 1024;

/// Decoding failure: malformed bytes, not an I/O problem.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the value was complete.
    Truncated,
    /// A length prefix exceeded [`MAX_FRAME`] or a sane element bound.
    Oversized(u64),
    /// An enum discriminant no decoder recognizes.
    BadDiscriminant(u32),
    /// Bytes were left over after the top-level value was decoded.
    TrailingBytes(usize),
    /// A value was syntactically valid but semantically impossible
    /// (e.g. a non-UTF-8 string or a `usize` overflow on a 32-bit host).
    Invalid(&'static str),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "truncated value"),
            WireError::Oversized(n) => write!(f, "length {n} exceeds frame bounds"),
            WireError::BadDiscriminant(d) => write!(f, "unknown enum discriminant {d}"),
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes after value"),
            WireError::Invalid(what) => write!(f, "invalid value: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<WireError> for io::Error {
    fn from(e: WireError) -> io::Error {
        io::Error::new(io::ErrorKind::InvalidData, e)
    }
}

/// A type that can encode itself to bytes and decode itself back.
///
/// `decode` consumes from the front of the slice; the caller checks for
/// trailing bytes at the top level (see [`decode_exact`]).
pub trait Wire: Sized {
    fn encode(&self, out: &mut Vec<u8>);
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError>;
}

/// Encodes a value to a fresh byte vector.
pub fn encode_vec<T: Wire>(value: &T) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    value.encode(&mut out);
    out
}

/// Decodes a value, requiring the buffer to be fully consumed.
pub fn decode_exact<T: Wire>(mut buf: &[u8]) -> Result<T, WireError> {
    let v = T::decode(&mut buf)?;
    if buf.is_empty() {
        Ok(v)
    } else {
        Err(WireError::TrailingBytes(buf.len()))
    }
}

fn take<'a>(buf: &mut &'a [u8], n: usize) -> Result<&'a [u8], WireError> {
    if buf.len() < n {
        return Err(WireError::Truncated);
    }
    let (head, tail) = buf.split_at(n);
    *buf = tail;
    Ok(head)
}

macro_rules! impl_wire_int {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            fn encode(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }

            fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
                let bytes = take(buf, std::mem::size_of::<$t>())?;
                Ok(<$t>::from_le_bytes(bytes.try_into().expect("sized take")))
            }
        }
    )*};
}

impl_wire_int!(u8, u16, u32, u64, i64);

impl Wire for usize {
    fn encode(&self, out: &mut Vec<u8>) {
        (*self as u64).encode(out);
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        let v = u64::decode(buf)?;
        usize::try_from(v).map_err(|_| WireError::Invalid("usize overflow"))
    }
}

impl Wire for bool {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(*self as u8);
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        match u8::decode(buf)? {
            0 => Ok(false),
            1 => Ok(true),
            d => Err(WireError::BadDiscriminant(d as u32)),
        }
    }
}

impl Wire for f64 {
    fn encode(&self, out: &mut Vec<u8>) {
        self.to_bits().encode(out);
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        Ok(f64::from_bits(u64::decode(buf)?))
    }
}

/// Length guard for decoded containers: a declared length may not exceed
/// what the remaining buffer could possibly hold (one byte per element
/// minimum), which bounds allocation before reading elements.
fn checked_len(buf: &[u8], declared: u64) -> Result<usize, WireError> {
    if declared > MAX_FRAME as u64 || declared > buf.len() as u64 {
        return Err(WireError::Oversized(declared));
    }
    Ok(declared as usize)
}

impl Wire for String {
    fn encode(&self, out: &mut Vec<u8>) {
        self.len().encode(out);
        out.extend_from_slice(self.as_bytes());
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        let len = u64::decode(buf)?;
        let len = checked_len(buf, len)?;
        let bytes = take(buf, len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::Invalid("non-utf8 string"))
    }
}

impl<T: Wire> Wire for Option<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.encode(out);
            }
        }
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        match u8::decode(buf)? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(buf)?)),
            d => Err(WireError::BadDiscriminant(d as u32)),
        }
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.len().encode(out);
        for item in self {
            item.encode(out);
        }
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        let len = u64::decode(buf)?;
        let len = checked_len(buf, len)?;
        let mut v = Vec::with_capacity(len);
        for _ in 0..len {
            v.push(T::decode(buf)?);
        }
        Ok(v)
    }
}

impl<T: Wire> Wire for Box<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        (**self).encode(out);
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        T::decode(buf).map(Box::new)
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        Ok((A::decode(buf)?, B::decode(buf)?))
    }
}

/// Implements [`Wire`] for a struct by encoding its named fields in order.
/// The struct's fields must all be `pub` (the impls live outside the
/// defining crates) and themselves implement `Wire`. Exported so sibling
/// crates (`bobw-serve`) can define wire types of their own.
#[macro_export]
macro_rules! wire_struct {
    ($ty:path { $($field:ident),+ $(,)? }) => {
        impl $crate::wire::Wire for $ty {
            fn encode(&self, out: &mut Vec<u8>) {
                $($crate::wire::Wire::encode(&self.$field, out);)+
            }

            fn decode(buf: &mut &[u8]) -> Result<Self, $crate::wire::WireError> {
                Ok(Self {
                    $($field: $crate::wire::Wire::decode(buf)?,)+
                })
            }
        }
    };
}

/// Implements [`Wire`] for an enum: a `u32` discriminant, the variant's
/// declaration index, then the variant's fields in order. An unknown
/// discriminant decodes to [`WireError::BadDiscriminant`]. List every
/// variant in declaration order and name tuple fields as bindings:
///
/// ```
/// use bobw_dist::wire::{decode_exact, encode_vec};
///
/// #[derive(Debug, PartialEq)]
/// enum Msg {
///     Ping,
///     Data(Vec<u8>),
///     Move { from: u32, to: u32 },
/// }
/// bobw_dist::wire_enum!(Msg { Ping, Data(bytes), Move { from, to } });
///
/// assert_eq!(encode_vec(&Msg::Ping), [0, 0, 0, 0]);
/// assert_eq!(encode_vec(&Msg::Data(vec![9])), [1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 9]);
/// let bytes = encode_vec(&Msg::Move { from: 1, to: 2 });
/// assert_eq!(bytes, [2, 0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0]);
/// assert_eq!(decode_exact::<Msg>(&bytes).unwrap(), Msg::Move { from: 1, to: 2 });
/// assert_eq!(
///     decode_exact::<Msg>(&[3, 0, 0, 0]).unwrap_err(),
///     bobw_dist::WireError::BadDiscriminant(3)
/// );
/// ```
///
/// The discriminants come from a mirror enum of the listed variants, so
/// one list drives both directions and they cannot disagree.
#[macro_export]
macro_rules! wire_enum {
    ($ty:path {
        $($variant:ident $(( $($tuple:ident),+ ))? $({ $($field:ident),+ $(,)? })?),+ $(,)?
    }) => {
        const _: () = {
            enum Discriminant { $($variant),+ }

            impl $crate::wire::Wire for $ty {
                fn encode(&self, out: &mut Vec<u8>) {
                    match self {
                        $(Self::$variant $(($($tuple),+))? $({ $($field),+ })? => {
                            $crate::wire::Wire::encode(&(Discriminant::$variant as u32), out);
                            $($($crate::wire::Wire::encode($tuple, out);)+)?
                            $($($crate::wire::Wire::encode($field, out);)+)?
                        })+
                    }
                }

                fn decode(buf: &mut &[u8]) -> Result<Self, $crate::wire::WireError> {
                    let d = <u32 as $crate::wire::Wire>::decode(buf)?;
                    $(if d == Discriminant::$variant as u32 {
                        $($(let $tuple = $crate::wire::Wire::decode(buf)?;)+)?
                        $($(let $field = $crate::wire::Wire::decode(buf)?;)+)?
                        return Ok(Self::$variant $(($($tuple),+))? $({ $($field),+ })?);
                    })+
                    Err($crate::wire::WireError::BadDiscriminant(d))
                }
            }
        };
    };
}

// ---------------------------------------------------------------------------
// Frame layer
// ---------------------------------------------------------------------------

/// Writes one frame: `u32` little-endian payload length, then the payload.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> io::Result<()> {
    assert!(payload.len() <= MAX_FRAME, "frame exceeds MAX_FRAME");
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Reads one frame payload. Returns `Ok(None)` on a clean EOF at a frame
/// boundary (the peer closed the connection between messages); EOF in the
/// middle of a frame is an `UnexpectedEof` error.
pub fn read_frame<R: Read>(r: &mut R) -> io::Result<Option<Vec<u8>>> {
    let mut len_bytes = [0u8; 4];
    let mut filled = 0;
    while filled < 4 {
        match r.read(&mut len_bytes[filled..]) {
            Ok(0) => {
                if filled == 0 {
                    return Ok(None);
                }
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed inside a frame header",
                ));
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_le_bytes(len_bytes) as usize;
    if len > MAX_FRAME {
        return Err(WireError::Oversized(len as u64).into());
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

/// Encodes `msg` and writes it as one frame.
pub fn send<W: Write, T: Wire>(w: &mut W, msg: &T) -> io::Result<()> {
    write_frame(w, &encode_vec(msg))
}

/// Reads one frame and decodes it, requiring full consumption.
pub fn recv<R: Read, T: Wire>(r: &mut R) -> io::Result<Option<T>> {
    match read_frame(r)? {
        None => Ok(None),
        Some(payload) => Ok(Some(decode_exact(&payload)?)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: Wire + PartialEq + std::fmt::Debug>(v: T) {
        let bytes = encode_vec(&v);
        assert_eq!(decode_exact::<T>(&bytes).unwrap(), v);
    }

    #[test]
    fn primitives_round_trip() {
        round_trip(0u8);
        round_trip(u8::MAX);
        round_trip(0x1234u16);
        round_trip(0xdead_beefu32);
        round_trip(u64::MAX);
        round_trip(-42i64);
        round_trip(true);
        round_trip(false);
        round_trip(usize::MAX);
    }

    #[test]
    fn floats_round_trip_bit_exactly() {
        for v in [
            0.0,
            -0.0,
            1.5,
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::NEG_INFINITY,
            std::f64::consts::PI,
        ] {
            round_trip(v);
        }
        // NaN payload bits survive too (PartialEq fails on NaN, so compare
        // the bit patterns directly).
        let nan = f64::from_bits(0x7ff8_dead_beef_0001);
        let bytes = encode_vec(&nan);
        assert_eq!(
            decode_exact::<f64>(&bytes).unwrap().to_bits(),
            nan.to_bits()
        );
    }

    #[test]
    fn containers_round_trip() {
        round_trip(String::from("hëllo wörld"));
        round_trip(String::new());
        round_trip(Option::<u32>::None);
        round_trip(Some(7u32));
        round_trip(vec![1u64, 2, 3]);
        round_trip(Vec::<String>::new());
        round_trip((3u8, String::from("x")));
        round_trip(vec![(1u8, 2.5f64), (3, f64::INFINITY)]);
    }

    #[test]
    fn truncated_values_error_cleanly() {
        let bytes = encode_vec(&0x1122_3344u32);
        for cut in 0..bytes.len() {
            assert_eq!(
                decode_exact::<u32>(&bytes[..cut]).unwrap_err(),
                WireError::Truncated,
                "cut at {cut}"
            );
        }
        // A string whose declared length exceeds the remaining bytes.
        let mut evil = Vec::new();
        1000u64.encode(&mut evil);
        evil.extend_from_slice(b"short");
        assert!(matches!(
            decode_exact::<String>(&evil).unwrap_err(),
            WireError::Oversized(1000)
        ));
    }

    #[test]
    fn oversized_vec_length_is_rejected_before_allocating() {
        let mut evil = Vec::new();
        (u64::MAX).encode(&mut evil);
        assert!(matches!(
            decode_exact::<Vec<u64>>(&evil).unwrap_err(),
            WireError::Oversized(_)
        ));
    }

    #[test]
    fn trailing_bytes_are_an_error() {
        let mut bytes = encode_vec(&5u32);
        bytes.push(0xff);
        assert_eq!(
            decode_exact::<u32>(&bytes).unwrap_err(),
            WireError::TrailingBytes(1)
        );
    }

    #[test]
    fn bad_discriminants_are_an_error() {
        assert_eq!(
            decode_exact::<bool>(&[7]).unwrap_err(),
            WireError::BadDiscriminant(7)
        );
        assert_eq!(
            decode_exact::<Option<u8>>(&[9]).unwrap_err(),
            WireError::BadDiscriminant(9)
        );
    }

    #[test]
    fn frames_round_trip_over_a_pipe() {
        let mut buf: Vec<u8> = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        write_frame(&mut buf, b"world").unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"world");
        // Clean EOF at a frame boundary.
        assert!(read_frame(&mut r).unwrap().is_none());
    }

    #[test]
    fn truncated_frame_header_and_body_error() {
        let mut buf: Vec<u8> = Vec::new();
        write_frame(&mut buf, b"abcdef").unwrap();
        // Cut inside the header.
        let mut r = &buf[..2];
        assert_eq!(
            read_frame(&mut r).unwrap_err().kind(),
            io::ErrorKind::UnexpectedEof
        );
        // Cut inside the body.
        let mut r = &buf[..7];
        assert_eq!(
            read_frame(&mut r).unwrap_err().kind(),
            io::ErrorKind::UnexpectedEof
        );
    }

    #[test]
    fn oversized_frame_header_is_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(MAX_FRAME as u32 + 1).to_le_bytes());
        buf.extend_from_slice(&[0u8; 16]);
        let mut r = &buf[..];
        let err = read_frame(&mut r).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }
}
