//! IPv4 addresses and CIDR prefixes.
//!
//! The simulator works with 32-bit IPv4 addresses stored as plain `u32`s in
//! host byte order, matching how a router's forwarding engine treats them: a
//! destination is just a bit pattern matched against prefixes.

use std::fmt;
use std::str::FromStr;

use serde::{de, DeError, Deserialize, Serialize, Value};

/// An IPv4 address as a 32-bit integer (`a.b.c.d` == `a<<24 | b<<16 | c<<8 | d`).
pub type Ipv4Net = u32;

/// Errors produced when parsing a [`Prefix`] from text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PrefixParseError {
    /// The string did not have the `a.b.c.d/len` shape.
    Malformed,
    /// An octet was out of `0..=255`.
    BadOctet,
    /// The prefix length was greater than 32.
    BadLength,
    /// Host bits below the mask were set (e.g. `10.0.0.1/24`).
    HostBitsSet,
}

impl fmt::Display for PrefixParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PrefixParseError::Malformed => write!(f, "malformed prefix, expected a.b.c.d/len"),
            PrefixParseError::BadOctet => write!(f, "octet out of range 0..=255"),
            PrefixParseError::BadLength => write!(f, "prefix length out of range 0..=32"),
            PrefixParseError::HostBitsSet => write!(f, "host bits set below the prefix length"),
        }
    }
}

impl std::error::Error for PrefixParseError {}

/// An IPv4 CIDR prefix: a network address plus a mask length.
///
/// ```
/// use bobw_net::Prefix;
///
/// let covering: Prefix = "184.164.244.0/23".parse().unwrap();
/// let specific: Prefix = "184.164.244.0/24".parse().unwrap();
/// assert!(covering.covers(&specific));
/// assert!(specific.contains(specific.addr_at(10))); // 184.164.244.10
/// ```
///
/// Invariant: all bits below the mask are zero (`bits & !mask == 0`).
/// [`Prefix::new`] enforces this by masking; [`Prefix::from_str`] and the
/// JSON decoder reject violations so that typos in experiment configs
/// surface loudly.
///
/// Ordering sorts by network address first and then by length, so more
/// specific prefixes of the same network sort *after* their covering
/// prefixes — convenient for stable output in reports.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub struct Prefix {
    bits: u32,
    len: u8,
}

impl Prefix {
    /// The default route `0.0.0.0/0`.
    pub const DEFAULT: Prefix = Prefix { bits: 0, len: 0 };

    /// Builds a prefix from a (possibly unmasked) address and length,
    /// zeroing any host bits. Panics if `len > 32`.
    pub fn new(addr: Ipv4Net, len: u8) -> Prefix {
        assert!(len <= 32, "prefix length {len} > 32");
        Prefix {
            bits: addr & Self::mask(len),
            len,
        }
    }

    /// The network mask for a given length (`/24` -> `0xffff_ff00`).
    #[inline]
    pub fn mask(len: u8) -> u32 {
        debug_assert!(len <= 32);
        if len == 0 {
            0
        } else {
            u32::MAX << (32 - len)
        }
    }

    /// The network address bits (host bits are always zero).
    #[inline]
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// The mask length. (Not a container length, so no `is_empty` pair.)
    #[inline]
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> u8 {
        self.len
    }

    /// True only for the zero-length default route.
    #[inline]
    pub fn is_default(&self) -> bool {
        self.len == 0
    }

    /// Does this prefix contain the given address?
    #[inline]
    pub fn contains(&self, addr: Ipv4Net) -> bool {
        addr & Self::mask(self.len) == self.bits
    }

    /// Is `other` a subnet of (or equal to) `self`?
    ///
    /// `10.0.0.0/23` covers `10.0.0.0/24` and `10.0.1.0/24` and itself.
    #[inline]
    pub fn covers(&self, other: &Prefix) -> bool {
        self.len <= other.len && other.bits & Self::mask(self.len) == self.bits
    }

    /// The number of addresses in the prefix (`/24` -> 256). Saturates for `/0`.
    pub fn size(&self) -> u64 {
        1u64 << (32 - self.len as u64)
    }

    /// The first address of the prefix (the network address itself).
    #[inline]
    pub fn first_addr(&self) -> Ipv4Net {
        self.bits
    }

    /// The last address of the prefix (the broadcast address for subnets).
    #[inline]
    pub fn last_addr(&self) -> Ipv4Net {
        self.bits | !Self::mask(self.len)
    }

    /// The `n`-th host address inside the prefix, wrapping within the prefix.
    ///
    /// Used to hand out per-service addresses inside a site prefix (the paper
    /// sources its Verfploeter probes from `184.164.244.10`, i.e. offset 10).
    pub fn addr_at(&self, n: u32) -> Ipv4Net {
        let span = !Self::mask(self.len);
        self.bits | (n & span)
    }

    /// Splits the prefix into its two halves, one bit longer each.
    ///
    /// Returns `None` for `/32`s. `184.164.244.0/23` splits into
    /// `184.164.244.0/24` and `184.164.245.0/24` — exactly the paper's
    /// allocation from PEERING.
    pub fn halves(&self) -> Option<(Prefix, Prefix)> {
        if self.len >= 32 {
            return None;
        }
        let len = self.len + 1;
        let lo = Prefix::new(self.bits, len);
        let hi = Prefix::new(self.bits | (1 << (32 - len)), len);
        Some((lo, hi))
    }

    /// The covering prefix one bit shorter, or `None` for the default route.
    pub fn parent(&self) -> Option<Prefix> {
        if self.len == 0 {
            None
        } else {
            Some(Prefix::new(self.bits, self.len - 1))
        }
    }

    /// The value of the `i`-th bit from the top (bit 0 is the most
    /// significant). Callers must keep `i < 32`.
    #[inline]
    pub fn bit(&self, i: u8) -> bool {
        debug_assert!(i < 32);
        self.bits & (0x8000_0000u32 >> i) != 0
    }
}

impl fmt::Display for Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = self.bits;
        write!(
            f,
            "{}.{}.{}.{}/{}",
            (b >> 24) & 0xff,
            (b >> 16) & 0xff,
            (b >> 8) & 0xff,
            b & 0xff,
            self.len
        )
    }
}

impl fmt::Debug for Prefix {
    // Prefixes read better as `184.164.244.0/24` than as struct syntax in
    // assertion failures, so Debug delegates to Display.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

/// Formats an address in dotted-quad form.
pub fn fmt_addr(addr: Ipv4Net) -> String {
    format!(
        "{}.{}.{}.{}",
        (addr >> 24) & 0xff,
        (addr >> 16) & 0xff,
        (addr >> 8) & 0xff,
        addr & 0xff
    )
}

/// Parses `a.b.c.d` into an [`Ipv4Net`].
pub fn parse_addr(s: &str) -> Result<Ipv4Net, PrefixParseError> {
    let mut octets = [0u32; 4];
    let mut parts = s.split('.');
    for slot in octets.iter_mut() {
        let part = parts.next().ok_or(PrefixParseError::Malformed)?;
        let v: u32 = part.parse().map_err(|_| PrefixParseError::Malformed)?;
        if v > 255 {
            return Err(PrefixParseError::BadOctet);
        }
        *slot = v;
    }
    if parts.next().is_some() {
        return Err(PrefixParseError::Malformed);
    }
    Ok((octets[0] << 24) | (octets[1] << 16) | (octets[2] << 8) | octets[3])
}

impl FromStr for Prefix {
    type Err = PrefixParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (addr, len) = s.split_once('/').ok_or(PrefixParseError::Malformed)?;
        let addr = parse_addr(addr)?;
        let len: u8 = len.parse().map_err(|_| PrefixParseError::Malformed)?;
        if len > 32 {
            return Err(PrefixParseError::BadLength);
        }
        if addr & !Prefix::mask(len) != 0 {
            return Err(PrefixParseError::HostBitsSet);
        }
        Ok(Prefix { bits: addr, len })
    }
}

/// Reads the `{"bits", "len"}` object the derived `Serialize` writes, with
/// the checks of [`Prefix::from_str`]: a length past 32 would overflow
/// [`Prefix::mask`] later, and set host bits break the invariant.
impl Deserialize for Prefix {
    fn from_value(v: &Value) -> Result<Prefix, DeError> {
        let bits: u32 = de::field(v, "bits")?;
        let len: u8 = de::field(v, "len")?;
        if len > 32 {
            return Err(DeError::new(PrefixParseError::BadLength.to_string()));
        }
        if bits & !Prefix::mask(len) != 0 {
            return Err(DeError::new(PrefixParseError::HostBitsSet.to_string()));
        }
        Ok(Prefix { bits, len })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn parse_and_display_round_trip() {
        for s in ["184.164.244.0/24", "0.0.0.0/0", "10.0.0.0/8", "1.2.3.4/32"] {
            assert_eq!(p(s).to_string(), s);
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        assert_eq!(
            "1.2.3/24".parse::<Prefix>(),
            Err(PrefixParseError::Malformed)
        );
        assert_eq!(
            "1.2.3.4.5/24".parse::<Prefix>(),
            Err(PrefixParseError::Malformed)
        );
        assert_eq!(
            "1.2.3.400/24".parse::<Prefix>(),
            Err(PrefixParseError::BadOctet)
        );
        assert_eq!(
            "1.2.3.0/33".parse::<Prefix>(),
            Err(PrefixParseError::BadLength)
        );
        assert_eq!(
            "1.2.3.1/24".parse::<Prefix>(),
            Err(PrefixParseError::HostBitsSet)
        );
        assert_eq!("".parse::<Prefix>(), Err(PrefixParseError::Malformed));
    }

    #[test]
    fn json_decode_keeps_the_invariant() {
        let decode = serde_json::from_str_typed::<Prefix>;
        let q = p("184.164.244.0/23");
        assert_eq!(decode(&serde_json::to_string(&q).unwrap()).unwrap(), q);
        assert_eq!(
            decode(r#"{"bits":0,"len":32}"#).unwrap(),
            Prefix::new(0, 32)
        );
        for bad in [
            r#"{"bits":0,"len":40}"#,
            r#"{"bits":0,"len":33}"#,
            r#"{"bits":1,"len":24}"#,
            r#"{"bits":0}"#,
        ] {
            assert!(decode(bad).is_err(), "{bad} must be rejected");
        }
        let err = decode(r#"{"bits":0,"len":40}"#).unwrap_err().to_string();
        assert!(err.contains("length out of range"), "{err}");
        let err = decode(r#"{"bits":1,"len":24}"#).unwrap_err().to_string();
        assert!(err.contains("host bits"), "{err}");
    }

    #[test]
    fn new_masks_host_bits() {
        let q = Prefix::new(parse_addr("10.1.2.3").unwrap(), 16);
        assert_eq!(q, p("10.1.0.0/16"));
    }

    #[test]
    fn contains_edges() {
        let q = p("184.164.244.0/24");
        assert!(q.contains(parse_addr("184.164.244.0").unwrap()));
        assert!(q.contains(parse_addr("184.164.244.255").unwrap()));
        assert!(!q.contains(parse_addr("184.164.245.0").unwrap()));
        assert!(!q.contains(parse_addr("184.164.243.255").unwrap()));
        assert!(Prefix::DEFAULT.contains(0));
        assert!(Prefix::DEFAULT.contains(u32::MAX));
    }

    #[test]
    fn covers_is_reflexive_and_respects_length() {
        let sup = p("184.164.244.0/23");
        let (lo, hi) = sup.halves().unwrap();
        assert_eq!(lo, p("184.164.244.0/24"));
        assert_eq!(hi, p("184.164.245.0/24"));
        assert!(sup.covers(&sup));
        assert!(sup.covers(&lo));
        assert!(sup.covers(&hi));
        assert!(!lo.covers(&sup));
        assert!(!lo.covers(&hi));
        assert!(Prefix::DEFAULT.covers(&sup));
    }

    #[test]
    fn parent_inverts_halves() {
        let q = p("184.164.244.0/24");
        assert_eq!(q.parent(), Some(p("184.164.244.0/23")));
        assert_eq!(Prefix::DEFAULT.parent(), None);
    }

    #[test]
    fn addr_at_stays_inside() {
        let q = p("184.164.244.0/24");
        assert_eq!(q.addr_at(10), parse_addr("184.164.244.10").unwrap());
        // Wraps instead of escaping the prefix.
        assert_eq!(q.addr_at(256 + 7), q.addr_at(7));
        assert!(q.contains(q.addr_at(u32::MAX)));
    }

    #[test]
    fn size_and_bounds() {
        let q = p("184.164.244.0/24");
        assert_eq!(q.size(), 256);
        assert_eq!(q.first_addr(), parse_addr("184.164.244.0").unwrap());
        assert_eq!(q.last_addr(), parse_addr("184.164.244.255").unwrap());
        assert_eq!(p("1.2.3.4/32").size(), 1);
    }

    #[test]
    fn bit_indexing_is_msb_first() {
        let q = p("128.0.0.0/1");
        assert!(q.bit(0));
        let r = p("64.0.0.0/2");
        assert!(!r.bit(0));
        assert!(r.bit(1));
    }

    #[test]
    fn ordering_places_specifics_after_covering() {
        let sup = p("184.164.244.0/23");
        let spec = p("184.164.244.0/24");
        assert!(sup < spec);
    }
}
