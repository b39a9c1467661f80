//! `Value::Str`, `Value::Symbol` and `Field::Custom` hold shared text
//! ([`Text`], one word: a thin `Arc` of a `String`) and `StateVar` holds an
//! `Arc<str>`, so that copying a packet, a test, an action or a placement
//! never copies a string. Nothing a caller can observe may depend on that:
//! ordering, equality, hashing and display must be those of the owned
//! `String`s the variants used to hold. The reference here is a mirror enum
//! over `String` — same variants, same order, same derives — checked against
//! `Value` on generated values whose texts are short enough to collide
//! often.

use proptest::prelude::*;
use snap_lang::codec::{Reader, Writer};
use snap_lang::{Field, Ipv4, Prefix, StateVar, Text, Value};
use std::fmt;
use std::hash::{Hash, Hasher};

#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
enum Model {
    Int(i64),
    Bool(bool),
    Ip(Ipv4),
    Prefix(Prefix),
    Str(String),
    Symbol(String),
    Tuple(Vec<Model>),
}

impl Model {
    fn value(&self) -> Value {
        match self {
            Model::Int(i) => Value::Int(*i),
            Model::Bool(b) => Value::Bool(*b),
            Model::Ip(ip) => Value::Ip(*ip),
            Model::Prefix(p) => Value::Prefix(*p),
            Model::Str(s) => Value::str(s.as_str()),
            Model::Symbol(s) => Value::sym(s.as_str()),
            Model::Tuple(vs) => Value::tuple(vs.iter().map(Model::value).collect()),
        }
    }
}

/// The rendering `Value` has always had: strings quoted and escaped,
/// symbols bare, tuples parenthesised.
impl fmt::Display for Model {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Model::Int(i) => write!(f, "{i}"),
            Model::Bool(b) => write!(f, "{}", if *b { "True" } else { "False" }),
            Model::Ip(ip) => write!(f, "{ip}"),
            Model::Prefix(p) => write!(f, "{p}"),
            Model::Str(s) => write!(f, "{s:?}"),
            Model::Symbol(s) => write!(f, "{s}"),
            Model::Tuple(vs) => {
                write!(f, "(")?;
                for (i, v) in vs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, ")")
            }
        }
    }
}

/// Records exactly what a `Hash` impl feeds its hasher, so two values hash
/// alike under *every* hasher, not just the one a test happens to use.
#[derive(Default)]
struct Tape(Vec<u8>);

impl Hasher for Tape {
    fn finish(&self) -> u64 {
        0
    }
    fn write(&mut self, bytes: &[u8]) {
        self.0.extend_from_slice(bytes);
    }
}

fn tape(v: &impl Hash) -> Vec<u8> {
    let mut t = Tape::default();
    v.hash(&mut t);
    t.0
}

/// Texts over a three-letter alphabet (plus a quote, which `Display` must
/// escape), at most three characters: equal texts and proper prefixes turn
/// up in most pairs.
fn arb_text() -> impl Strategy<Value = String> {
    proptest::collection::vec(0usize..4, 0..=3)
        .prop_map(|cs| cs.into_iter().map(|c| ['a', 'b', 'Z', '"'][c]).collect())
}

fn arb_model() -> impl Strategy<Value = Model> {
    let leaf = prop_oneof![
        (-2i64..3).prop_map(Model::Int),
        any::<bool>().prop_map(Model::Bool),
        (0u8..3).prop_map(|d| Model::Ip(Ipv4::new(10, 0, 0, d))),
        (0u8..3).prop_map(|c| Model::Prefix(Prefix::new(Ipv4::new(10, 0, c, 0), 24))),
        arb_text().prop_map(Model::Str),
        arb_text().prop_map(Model::Symbol),
    ];
    leaf.prop_recursive(2, 8, 3, |inner| {
        proptest::collection::vec(inner, 0..=3).prop_map(Model::Tuple)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn values_compare_hash_and_print_like_owned_strings(a in arb_model(), b in arb_model()) {
        let (va, vb) = (a.value(), b.value());
        prop_assert_eq!(va.cmp(&vb), a.cmp(&b), "ordering of {} vs {}", a, b);
        prop_assert_eq!(va == vb, a == b, "equality of {} vs {}", a, b);
        prop_assert_eq!(tape(&va), tape(&a), "hash stream of {}", a);
        prop_assert_eq!(va.to_string(), a.to_string());
        prop_assert_eq!(format!("{va:?}"), a.to_string());
        // A clone shares the text and is indistinguishable from its source.
        let copy = va.clone();
        prop_assert_eq!(&copy, &va);
        prop_assert_eq!(tape(&copy), tape(&va));
    }

    // The byte codec hands back exactly the value it was given, consumes
    // exactly the bytes it wrote, and rejects every strict prefix of them.
    #[test]
    fn values_round_trip_through_the_codec(model in arb_model(), cut in 0usize..10_000) {
        let value = model.value();
        let mut w = Writer::new();
        w.value(&value);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        prop_assert_eq!(r.value(), Ok(value));
        prop_assert_eq!(r.finish(), Ok(()));
        prop_assert!(Reader::new(&bytes[..cut % bytes.len()]).value().is_err());
    }

    #[test]
    fn texts_compare_hash_and_print_like_owned_strings(a in arb_text(), b in arb_text()) {
        let (ta, tb) = (Text::from(a.as_str()), Text::from(b.clone()));
        prop_assert_eq!(&*ta, a.as_str());
        prop_assert_eq!(ta.cmp(&tb), a.cmp(&b));
        prop_assert_eq!(ta == tb, a == b);
        prop_assert_eq!(tape(&ta), tape(&a), "hash stream of {}", a);
        prop_assert_eq!(ta.to_string(), a.clone());
        prop_assert_eq!(format!("{ta:?}"), format!("{a:?}"));
        // A clone shares the allocation; an equal text built anew does not.
        let copy = ta.clone();
        prop_assert!(Text::ptr_eq(&copy, &ta));
        prop_assert!(!Text::ptr_eq(&Text::from(a.as_str()), &ta));
        prop_assert_eq!(&copy, &ta);
        prop_assert_eq!(tape(&copy), tape(&ta));
    }

    #[test]
    fn custom_fields_compare_and_hash_by_name(a in arb_text(), b in arb_text()) {
        // Prefixed so no generated name collides with a built-in field.
        let (a, b) = (format!("x.{a}"), format!("x.{b}"));
        let (fa, fb) = (Field::from_name(&a), Field::from_name(&b));
        prop_assert_eq!(fa.name(), a.as_str());
        prop_assert_eq!(fa.cmp(&fb), a.cmp(&b));
        prop_assert_eq!(fa == fb, a == b);
        prop_assert_eq!(tape(&fa) == tape(&fb), a == b);
        prop_assert_eq!(fa.to_string(), a);
        // Every custom field sorts after every built-in one, as before.
        prop_assert!(Field::Content < fa);
    }

    #[test]
    fn state_vars_compare_hash_and_print_like_owned_strings(a in arb_text(), b in arb_text()) {
        // The mirror: the `String`-backed tuple struct `StateVar` used to be.
        #[derive(PartialEq, Eq, PartialOrd, Ord, Hash)]
        struct Owned(String);
        let (oa, ob) = (Owned(a.clone()), Owned(b.clone()));
        let (va, vb) = (StateVar::new(a.as_str()), StateVar::new(b.clone()));
        prop_assert_eq!(va.name(), a.as_str());
        prop_assert_eq!(va.cmp(&vb), oa.cmp(&ob));
        prop_assert_eq!(va == vb, oa == ob);
        prop_assert_eq!(tape(&va), tape(&oa), "hash stream of {}", a);
        prop_assert_eq!(va.to_string(), a.clone());
        prop_assert_eq!(format!("{va:?}"), a.clone());
        prop_assert_eq!(&StateVar::from(a.as_str()), &va);
        // A clone shares the text and is indistinguishable from its source.
        let copy = va.clone();
        prop_assert!(std::sync::Arc::ptr_eq(&copy.0, &va.0));
        prop_assert_eq!(&copy, &va);
        prop_assert_eq!(tape(&copy), tape(&va));
    }
}
