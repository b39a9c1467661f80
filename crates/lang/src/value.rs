//! Values and header fields of the SNAP language.
//!
//! SNAP values (paper §3, appendix A) are "packet-related fields (IP
//! addresses, TCP ports, MAC addresses, DNS domains) along with integers,
//! booleans and vectors of such values". We add IP prefixes (used by tests
//! such as `dstip = 10.0.6.0/24`) and symbolic constants (used by policies
//! such as the TCP state machine, e.g. `ESTABLISHED`).

use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// A 32-bit IPv4 address.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Ipv4(pub u32);

impl Ipv4 {
    /// Build an address from dotted-quad octets.
    pub fn new(a: u8, b: u8, c: u8, d: u8) -> Self {
        Ipv4(u32::from(a) << 24 | u32::from(b) << 16 | u32::from(c) << 8 | u32::from(d))
    }

    /// The four octets of the address, most significant first.
    pub fn octets(self) -> [u8; 4] {
        [
            (self.0 >> 24) as u8,
            (self.0 >> 16) as u8,
            (self.0 >> 8) as u8,
            self.0 as u8,
        ]
    }

    /// Parse a dotted-quad string such as `10.0.6.0`.
    pub fn parse(s: &str) -> Option<Self> {
        let mut parts = s.split('.');
        let a: u8 = parts.next()?.parse().ok()?;
        let b: u8 = parts.next()?.parse().ok()?;
        let c: u8 = parts.next()?.parse().ok()?;
        let d: u8 = parts.next()?.parse().ok()?;
        if parts.next().is_some() {
            return None;
        }
        Some(Ipv4::new(a, b, c, d))
    }
}

impl fmt::Debug for Ipv4 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let o = self.octets();
        write!(f, "{}.{}.{}.{}", o[0], o[1], o[2], o[3])
    }
}

impl fmt::Display for Ipv4 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// An IPv4 prefix, e.g. `10.0.6.0/24`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Prefix {
    /// Network address (host bits are ignored for matching but preserved for display).
    pub addr: Ipv4,
    /// Prefix length in bits, `0..=32`.
    pub len: u8,
}

impl Prefix {
    /// Build a prefix, masking the host bits of `addr`.
    pub fn new(addr: Ipv4, len: u8) -> Self {
        assert!(len <= 32, "prefix length must be <= 32");
        Prefix {
            addr: Ipv4(addr.0 & Self::mask(len)),
            len,
        }
    }

    fn mask(len: u8) -> u32 {
        if len == 0 {
            0
        } else {
            u32::MAX << (32 - u32::from(len))
        }
    }

    /// Does `ip` fall inside this prefix?
    pub fn contains(&self, ip: Ipv4) -> bool {
        (ip.0 & Self::mask(self.len)) == self.addr.0
    }

    /// Is `other` a sub-prefix of (or equal to) this prefix?
    pub fn contains_prefix(&self, other: &Prefix) -> bool {
        other.len >= self.len && self.contains(other.addr)
    }

    /// Do the two prefixes share any address?
    pub fn overlaps(&self, other: &Prefix) -> bool {
        self.contains_prefix(other) || other.contains_prefix(self)
    }

    /// Parse a `a.b.c.d/len` string.
    pub fn parse(s: &str) -> Option<Self> {
        let (addr, len) = s.split_once('/')?;
        let addr = Ipv4::parse(addr)?;
        let len: u8 = len.parse().ok()?;
        if len > 32 {
            return None;
        }
        Some(Prefix::new(addr, len))
    }
}

impl fmt::Debug for Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.addr, self.len)
    }
}

impl fmt::Display for Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// Immutable shared text: the string behind [`Value::Str`],
/// [`Value::Symbol`] and [`Field::Custom`].
///
/// One word wide (a thin `Arc` of an owned `String`), so that every variant
/// of [`Value`] and [`Field`] fits one word plus a tag. A clone is a
/// reference-count bump and never reaches the allocator; building a new
/// text costs two heap blocks (the count and the bytes). Equality,
/// ordering, hashing and both `Display` and `Debug` are those of `str`, so
/// no caller can tell it from an owned string: the derives go through
/// `Arc` and `String` to `str`.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Text(Arc<String>);

impl Text {
    /// Do `a` and `b` share one allocation (is one a clone of the other)?
    pub fn ptr_eq(a: &Text, b: &Text) -> bool {
        Arc::ptr_eq(&a.0, &b.0)
    }
}

impl Deref for Text {
    type Target = str;

    #[inline]
    fn deref(&self) -> &str {
        &self.0
    }
}

impl From<&str> for Text {
    fn from(s: &str) -> Self {
        Text(Arc::new(s.to_owned()))
    }
}

impl From<String> for Text {
    fn from(s: String) -> Self {
        Text(Arc::new(s))
    }
}

impl fmt::Debug for Text {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

impl fmt::Display for Text {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&**self, f)
    }
}

/// A SNAP value.
///
/// One word plus a tag (16 bytes): the text-carrying variants hold a
/// [`Text`] and a tuple holds its elements behind one box. Cloning or
/// dropping a scalar or text value — and hence a packet of them — never
/// reaches the allocator. Ordering, equality, hashing and display are
/// exactly those the variants had over owned `String`s and an inline `Vec`.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Value {
    /// A signed integer (counters, ports, thresholds, TTLs, ...).
    Int(i64),
    /// A boolean (used pervasively by the Appendix F policies).
    Bool(bool),
    /// An IPv4 address.
    Ip(Ipv4),
    /// An IPv4 prefix; only meaningful inside tests such as `dstip = 10.0.6.0/24`.
    Prefix(Prefix),
    /// A string (DNS names, HTTP user agents, payload content, ...).
    Str(Text),
    /// A symbolic constant such as `ESTABLISHED`, `SYN` or `threshold`.
    Symbol(Text),
    /// A vector of values (the paper's `⇀v`), boxed to keep `Value` narrow;
    /// build one with [`Value::tuple`].
    #[allow(clippy::box_collection)] // a thin box: `Box<[Value]>` is two words
    Tuple(Box<Vec<Value>>),
}

// Both halves of a packet's `(Field, Value)` pair are one word plus a tag.
const _: () = assert!(std::mem::size_of::<Value>() == 16);
const _: () = assert!(std::mem::size_of::<Field>() == 16);

impl Value {
    /// Convenience constructor for string values.
    pub fn str(s: impl Into<String>) -> Self {
        Value::Str(s.into().into())
    }

    /// Convenience constructor for symbolic constants.
    pub fn sym(s: impl Into<String>) -> Self {
        Value::Symbol(s.into().into())
    }

    /// A tuple of `vs`.
    pub fn tuple(vs: Vec<Value>) -> Self {
        Value::Tuple(Box::new(vs))
    }

    /// Convenience constructor for IP addresses from octets.
    pub fn ip(a: u8, b: u8, c: u8, d: u8) -> Self {
        Value::Ip(Ipv4::new(a, b, c, d))
    }

    /// Convenience constructor for IP prefixes from octets and length.
    pub fn prefix(a: u8, b: u8, c: u8, d: u8, len: u8) -> Self {
        Value::Prefix(Prefix::new(Ipv4::new(a, b, c, d), len))
    }

    /// True if this value "matches" `other` in a test `f = v` sense:
    /// values are equal, or `self` is a prefix containing `other`'s address.
    pub fn matches(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Prefix(p), Value::Ip(ip)) => p.contains(*ip),
            (Value::Ip(ip), Value::Prefix(p)) => p.contains(*ip),
            (Value::Prefix(a), Value::Prefix(b)) => a == b,
            (a, b) => a == b,
        }
    }

    /// Is this value an integer, and if so which one?
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Is this value truthy (used by bare state tests such as `orphan[a][b]`)?
    pub fn truthy(&self) -> bool {
        match self {
            Value::Bool(b) => *b,
            Value::Int(i) => *i != 0,
            _ => true,
        }
    }
}

impl fmt::Debug for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(i) => write!(f, "{i}"),
            Value::Bool(b) => write!(f, "{}", if *b { "True" } else { "False" }),
            Value::Ip(ip) => write!(f, "{ip}"),
            Value::Prefix(p) => write!(f, "{p}"),
            Value::Str(s) => write!(f, "{s:?}"),
            Value::Symbol(s) => write!(f, "{s}"),
            Value::Tuple(vs) => {
                write!(f, "(")?;
                for (i, v) in vs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v:?}")?;
                }
                write!(f, ")")
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}

impl From<i32> for Value {
    fn from(i: i32) -> Self {
        Value::Int(i64::from(i))
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<Ipv4> for Value {
    fn from(ip: Ipv4) -> Self {
        Value::Ip(ip)
    }
}

impl From<Prefix> for Value {
    fn from(p: Prefix) -> Self {
        Value::Prefix(p)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.into())
    }
}

/// A packet header field.
///
/// The paper assumes "a rich set of fields, e.g. DNS response data"
/// (§2.1 footnote 1); programmable parsers such as P4's make the exact set
/// configurable, so `Field::Custom` keeps the set open-ended while the common
/// fields get dedicated variants. Like [`Value`], one word plus a tag.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[allow(missing_docs)] // the variant names are the documentation (header field names)
pub enum Field {
    SrcIp,
    DstIp,
    SrcPort,
    DstPort,
    Proto,
    TcpFlags,
    /// OBS ingress port (external port of the one big switch).
    InPort,
    /// OBS egress port.
    OutPort,
    DnsRdata,
    DnsQname,
    DnsTtl,
    FtpPort,
    SmtpMta,
    HttpUserAgent,
    SessionId,
    MpegFrameType,
    Content,
    /// Any other field, by name (shared [`Text`], like [`Value::Str`]).
    Custom(Text),
}

impl Field {
    /// The canonical surface-syntax name of this field.
    pub fn name(&self) -> &str {
        match self {
            Field::SrcIp => "srcip",
            Field::DstIp => "dstip",
            Field::SrcPort => "srcport",
            Field::DstPort => "dstport",
            Field::Proto => "proto",
            Field::TcpFlags => "tcp.flags",
            Field::InPort => "inport",
            Field::OutPort => "outport",
            Field::DnsRdata => "dns.rdata",
            Field::DnsQname => "dns.qname",
            Field::DnsTtl => "dns.ttl",
            Field::FtpPort => "ftp.PORT",
            Field::SmtpMta => "smtp.MTA",
            Field::HttpUserAgent => "http.user-agent",
            Field::SessionId => "sid",
            Field::MpegFrameType => "mpeg.frame-type",
            Field::Content => "content",
            Field::Custom(s) => s,
        }
    }

    /// Look a field up by its surface-syntax name; unknown names map to
    /// `Field::Custom`.
    pub fn from_name(name: &str) -> Self {
        match name {
            "srcip" => Field::SrcIp,
            "dstip" => Field::DstIp,
            "srcport" => Field::SrcPort,
            "dstport" => Field::DstPort,
            "proto" => Field::Proto,
            "tcp.flags" => Field::TcpFlags,
            "inport" => Field::InPort,
            "outport" => Field::OutPort,
            "dns.rdata" => Field::DnsRdata,
            "dns.qname" => Field::DnsQname,
            "dns.ttl" => Field::DnsTtl,
            "ftp.PORT" => Field::FtpPort,
            "smtp.MTA" => Field::SmtpMta,
            "http.user-agent" => Field::HttpUserAgent,
            "sid" => Field::SessionId,
            "mpeg.frame-type" => Field::MpegFrameType,
            "content" => Field::Content,
            other => Field::Custom(other.into()),
        }
    }

    /// Is `name` one of the built-in field names?
    pub fn is_known_name(name: &str) -> bool {
        !matches!(Field::from_name(name), Field::Custom(_))
    }

    /// All built-in fields (useful for random packet generation in tests).
    pub fn all_builtin() -> Vec<Field> {
        vec![
            Field::SrcIp,
            Field::DstIp,
            Field::SrcPort,
            Field::DstPort,
            Field::Proto,
            Field::TcpFlags,
            Field::InPort,
            Field::OutPort,
            Field::DnsRdata,
            Field::DnsQname,
            Field::DnsTtl,
            Field::FtpPort,
            Field::SmtpMta,
            Field::HttpUserAgent,
            Field::SessionId,
            Field::MpegFrameType,
            Field::Content,
        ]
    }
}

impl fmt::Debug for Field {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

impl fmt::Display for Field {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ipv4_roundtrip() {
        let ip = Ipv4::new(10, 0, 6, 42);
        assert_eq!(ip.octets(), [10, 0, 6, 42]);
        assert_eq!(Ipv4::parse("10.0.6.42"), Some(ip));
        assert_eq!(format!("{ip}"), "10.0.6.42");
        assert_eq!(Ipv4::parse("300.1.1.1"), None);
        assert_eq!(Ipv4::parse("1.2.3"), None);
        assert_eq!(Ipv4::parse("1.2.3.4.5"), None);
    }

    #[test]
    fn prefix_contains() {
        let p = Prefix::parse("10.0.6.0/24").unwrap();
        assert!(p.contains(Ipv4::new(10, 0, 6, 1)));
        assert!(p.contains(Ipv4::new(10, 0, 6, 255)));
        assert!(!p.contains(Ipv4::new(10, 0, 7, 1)));
        let q = Prefix::parse("10.0.6.128/25").unwrap();
        assert!(p.contains_prefix(&q));
        assert!(!q.contains_prefix(&p));
        assert!(p.overlaps(&q));
        let r = Prefix::parse("10.0.3.0/25").unwrap();
        assert!(!p.overlaps(&r));
    }

    #[test]
    fn prefix_zero_length_contains_everything() {
        let p = Prefix::new(Ipv4::new(0, 0, 0, 0), 0);
        assert!(p.contains(Ipv4::new(255, 255, 255, 255)));
        assert!(p.contains(Ipv4::new(0, 0, 0, 1)));
    }

    #[test]
    fn prefix_masks_host_bits() {
        let p = Prefix::new(Ipv4::new(10, 0, 6, 77), 24);
        assert_eq!(p.addr, Ipv4::new(10, 0, 6, 0));
    }

    #[test]
    fn value_matches_prefix() {
        let pre = Value::prefix(10, 0, 6, 0, 24);
        assert!(pre.matches(&Value::ip(10, 0, 6, 9)));
        assert!(!pre.matches(&Value::ip(10, 0, 5, 9)));
        assert!(Value::ip(10, 0, 6, 9).matches(&pre));
        assert!(pre.matches(&pre));
        assert!(!pre.matches(&Value::Int(3)));
    }

    #[test]
    fn value_matches_exact() {
        assert!(Value::Int(53).matches(&Value::Int(53)));
        assert!(!Value::Int(53).matches(&Value::Int(54)));
        assert!(Value::sym("SYN").matches(&Value::sym("SYN")));
        assert!(!Value::Bool(true).matches(&Value::Int(1)));
    }

    #[test]
    fn value_truthiness() {
        assert!(Value::Bool(true).truthy());
        assert!(!Value::Bool(false).truthy());
        assert!(!Value::Int(0).truthy());
        assert!(Value::Int(7).truthy());
        assert!(Value::str("x").truthy());
    }

    #[test]
    fn field_name_roundtrip() {
        for f in Field::all_builtin() {
            assert_eq!(Field::from_name(f.name()), f);
        }
        let c = Field::from_name("my.weird.field");
        assert_eq!(c, Field::Custom("my.weird.field".into()));
        assert_eq!(c.name(), "my.weird.field");
        assert!(Field::is_known_name("dns.rdata"));
        assert!(!Field::is_known_name("frobnicator"));
    }

    #[test]
    fn value_ordering_is_total() {
        let mut vs = vec![
            Value::Int(3),
            Value::Bool(true),
            Value::ip(1, 2, 3, 4),
            Value::str("a"),
            Value::sym("Z"),
            Value::tuple(vec![Value::Int(1)]),
        ];
        vs.sort();
        vs.dedup();
        assert_eq!(vs.len(), 6);
    }
}
