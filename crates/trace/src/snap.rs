//! Snapshot state codec: one compact positional encoding per type over
//! the in-tree JSON [`Value`].
//!
//! Every engine in the workspace is a deterministic state machine; the
//! snapshot subsystem serializes their *dynamic* state (clocks, queues,
//! tables, telemetry cursors) so a freshly built, identically configured
//! session can be overwritten into a bit-exact copy of a live one.
//! Config-derived structure (wheel dimensions, FIFO capacities, unit
//! counts) is deliberately *not* encoded — the restoring side rebuilds it
//! from the same config, and a [`fingerprint`] checked with
//! [`Dec::expect`] rejects mismatches.
//!
//! Every snapshot value type implements [`Snap`] exactly once, next to its
//! definition: `save` renders it, `load` rebuilds it or fails with a typed
//! [`SnapError`]. Integers, `bool`, `String`, `Option`, the sequence and
//! set containers and tuples are implemented here, once. A struct is a
//! positional array of its fields — [`Enc::put`] pushes one field,
//! [`Dec::get`] reads it back in the same order — so each save/load body
//! is one line per field on each side; [`snap_struct!`](crate::snap_struct)
//! and [`snap_enum!`](crate::snap_enum) write those bodies for plain
//! structs and enums. Unordered containers encode in ascending order, so
//! equal states encode equally. Components whose structure comes from
//! their config (unit tables, wheels) keep an in-place
//! `load_state(&mut self, &Value)` built from the same calls.
//!
//! Two rules keep decoding total:
//!
//! * a narrow integer (`u8`, `u16`, `u32`, `usize`) rejects a value that
//!   does not fit instead of truncating it;
//! * `None` encodes as `null`, so an `Option<Option<T>>` would decode
//!   `Some(None)` as `None`. Never encode one: give the outer layer its
//!   own tag (as the core's `ResolveKind` does with its variant code).
//!
//! All numbers ride [`Value::Int`], which keeps full 64-bit values exact
//! (the JSON parser never routes integers through `f64`).

use crate::json::{json_escape, parse_json, JsonError, Value};
use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap, HashMap, HashSet, VecDeque};
use std::fmt;
use std::hash::{BuildHasher, Hash};
use std::sync::Arc;

/// Error from decoding a snapshot: a malformed document, a field of the
/// wrong shape, or a config fingerprint mismatch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapError {
    /// Human-readable description of the first problem encountered.
    pub message: String,
}

impl SnapError {
    /// A new error with the given message.
    pub fn new(message: impl Into<String>) -> Self {
        SnapError {
            message: message.into(),
        }
    }

    /// Prefixes the message with where in the document the error sits.
    fn at(mut self, place: &str) -> Self {
        self.message = format!("{place}: {}", self.message);
        self
    }
}

impl fmt::Display for SnapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "snapshot: {}", self.message)
    }
}

impl std::error::Error for SnapError {}

impl From<JsonError> for SnapError {
    fn from(e: JsonError) -> Self {
        SnapError::new(e.to_string())
    }
}

// ---------------------------------------------------------------- rendering

/// Renders a [`Value`] tree as compact JSON text — the inverse of
/// [`parse_json`], shared by every snapshot writer.
pub fn render_value(v: &Value, out: &mut String) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Int(n) => out.push_str(&n.to_string()),
        Value::Num(n) => out.push_str(&format!("{n}")),
        Value::Str(s) => {
            out.push('"');
            out.push_str(&json_escape(s));
            out.push('"');
        }
        Value::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                render_value(item, out);
            }
            out.push(']');
        }
        Value::Obj(map) => {
            out.push('{');
            for (i, (k, item)) in map.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push('"');
                out.push_str(&json_escape(k));
                out.push_str("\":");
                render_value(item, out);
            }
            out.push('}');
        }
    }
}

/// Renders a [`Value`] to an owned JSON string.
pub fn value_to_json(v: &Value) -> String {
    let mut out = String::new();
    render_value(v, &mut out);
    out
}

/// Parses a snapshot document (JSON text) back into a [`Value`].
///
/// # Errors
///
/// Returns [`SnapError`] on malformed JSON.
pub fn value_from_json(s: &str) -> Result<Value, SnapError> {
    Ok(parse_json(s)?)
}

// -------------------------------------------------------------- fingerprint

/// The FNV-1a 64-bit offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// The FNV-1a 64-bit prime.
pub const FNV_PRIME: u64 = 0x100_0000_01b3;

/// Folds configuration fields into one FNV-style fingerprint (one word per
/// step). A snapshot records its session's fingerprint and the restoring
/// side checks it with [`Dec::expect`]: restore overwrites dynamic state
/// only, so structure must match, and a silent mismatch would corrupt the
/// session instead of erroring.
pub fn fingerprint(fields: impl IntoIterator<Item = u64>) -> u64 {
    fields
        .into_iter()
        .fold(FNV_OFFSET, |h, v| (h ^ v).wrapping_mul(FNV_PRIME))
}

// -------------------------------------------------------------------- trait

/// A type with one snapshot encoding.
pub trait Snap: Sized {
    /// Encodes the value.
    fn save(&self) -> Value;

    /// Decodes a value written by [`Snap::save`].
    ///
    /// # Errors
    ///
    /// Returns [`SnapError`] when `v` has the wrong shape or holds a value
    /// the type cannot represent.
    fn load(v: &Value) -> Result<Self, SnapError>;
}

/// The JSON leaves: each type rides one `Value` variant.
macro_rules! snap_leaf {
    ($($t:ty: $var:ident, $what:literal;)+) => {$(
        impl Snap for $t {
            fn save(&self) -> Value {
                Value::$var(self.to_owned())
            }

            fn load(v: &Value) -> Result<Self, SnapError> {
                match v {
                    Value::$var(x) => Ok(x.to_owned()),
                    _ => Err(SnapError::new(concat!("expected ", $what))),
                }
            }
        }
    )+};
}

snap_leaf! {
    u64: Int, "an integer";
    bool: Bool, "a bool";
    String: Str, "a string";
}

macro_rules! snap_narrow_int {
    ($($t:ty),*) => {$(
        impl Snap for $t {
            fn save(&self) -> Value {
                Value::Int(*self as u64)
            }

            fn load(v: &Value) -> Result<Self, SnapError> {
                let n = u64::load(v)?;
                <$t>::try_from(n).map_err(|_| {
                    SnapError::new(format!("{n} does not fit {}", stringify!($t)))
                })
            }
        }
    )*};
}

snap_narrow_int!(u8, u16, u32, usize);

impl Snap for Value {
    fn save(&self) -> Value {
        self.clone()
    }

    fn load(v: &Value) -> Result<Self, SnapError> {
        Ok(v.clone())
    }
}

/// `None` is `null`. See the module docs: never nest an `Option` in an
/// `Option`.
impl<T: Snap> Snap for Option<T> {
    fn save(&self) -> Value {
        self.as_ref().map_or(Value::Null, T::save)
    }

    fn load(v: &Value) -> Result<Self, SnapError> {
        match v {
            Value::Null => Ok(None),
            v => T::load(v).map(Some),
        }
    }
}

fn items(v: &Value) -> Result<&[Value], SnapError> {
    v.as_array()
        .ok_or_else(|| SnapError::new("expected an array"))
}

fn save_all<'a, T: Snap + 'a>(it: impl IntoIterator<Item = &'a T>) -> Value {
    Value::Arr(it.into_iter().map(T::save).collect())
}

fn load_all<T: Snap, C: FromIterator<T>>(v: &Value) -> Result<C, SnapError> {
    items(v)?
        .iter()
        .enumerate()
        .map(|(i, v)| T::load(v).map_err(|e| e.at(&format!("[{i}]"))))
        .collect()
}

/// Saves items in ascending order (for containers without a stable
/// iteration order).
fn save_sorted<'a, T: Snap + Ord + 'a>(it: impl IntoIterator<Item = &'a T>) -> Value {
    let mut all: Vec<&T> = it.into_iter().collect();
    all.sort_unstable();
    save_all(all)
}

/// Sequences and ordered sets: their items in iteration order.
macro_rules! snap_seq {
    ($($c:ty $(: $bound:path)?;)+) => {$(
        impl<T: Snap $(+ $bound)?> Snap for $c {
            fn save(&self) -> Value {
                save_all(self.iter())
            }

            fn load(v: &Value) -> Result<Self, SnapError> {
                load_all(v)
            }
        }
    )+};
}

snap_seq! {
    Vec<T>;
    VecDeque<T>;
    Arc<[T]>;
    BTreeSet<T>: Ord;
}

impl<T: Snap, const N: usize> Snap for [T; N] {
    fn save(&self) -> Value {
        save_all(self)
    }

    fn load(v: &Value) -> Result<Self, SnapError> {
        let all: Vec<T> = load_all(v)?;
        let n = all.len();
        all.try_into()
            .map_err(|_| SnapError::new(format!("{n} items for a table of {N}")))
    }
}

/// Pops in ascending order, so it is saved in ascending order.
impl<T: Snap + Ord> Snap for BinaryHeap<Reverse<T>> {
    fn save(&self) -> Value {
        save_sorted(self.iter().map(|Reverse(t)| t))
    }

    fn load(v: &Value) -> Result<Self, SnapError> {
        Ok(Vec::<T>::load(v)?.into_iter().map(Reverse).collect())
    }
}

/// `[key, value]` pairs in ascending key order.
impl<K, V, S> Snap for HashMap<K, V, S>
where
    K: Snap + Ord + Hash,
    V: Snap,
    S: BuildHasher + Default,
{
    fn save(&self) -> Value {
        let mut all: Vec<(&K, &V)> = self.iter().collect();
        all.sort_unstable_by(|a, b| a.0.cmp(b.0));
        Value::Arr(
            all.into_iter()
                .map(|(k, v)| Value::Arr(vec![k.save(), v.save()]))
                .collect(),
        )
    }

    fn load(v: &Value) -> Result<Self, SnapError> {
        load_all::<(K, V), _>(v)
    }
}

impl<K: Snap + Ord + Hash, S: BuildHasher + Default> Snap for HashSet<K, S> {
    fn save(&self) -> Value {
        save_sorted(self)
    }

    fn load(v: &Value) -> Result<Self, SnapError> {
        load_all(v)
    }
}

macro_rules! snap_tuple {
    ($($t:ident $i:tt),+) => {
        impl<$($t: Snap),+> Snap for ($($t,)+) {
            fn save(&self) -> Value {
                Value::Arr(vec![$(self.$i.save()),+])
            }

            fn load(v: &Value) -> Result<Self, SnapError> {
                let mut d = Dec::new(v, "tuple")?;
                Ok(($(d.get::<$t>()?,)+))
            }
        }
    };
}

snap_tuple!(A 0);
snap_tuple!(A 0, B 1);
snap_tuple!(A 0, B 1, C 2);
snap_tuple!(A 0, B 1, C 2, D 3);
snap_tuple!(A 0, B 1, C 2, D 3, E 4);

// ------------------------------------------------------------------ derive

/// Implements [`Snap`] for a struct as the positional record of the listed
/// fields, in the listed order: one [`Enc::put`] and one [`Dec::get`] per
/// field. A newtype, `snap_struct!(Id(u32))`, encodes as its one field.
///
/// ```
/// use picos_trace::snap::Snap;
///
/// #[derive(Debug, PartialEq)]
/// struct Probe {
///     at: u64,
///     hits: Vec<u32>,
/// }
/// picos_trace::snap_struct!(Probe { at, hits });
///
/// let p = Probe { at: 7, hits: vec![1, 2] };
/// assert_eq!(Probe::load(&p.save()).unwrap(), p);
/// ```
#[macro_export]
macro_rules! snap_struct {
    ($ty:ident($inner:ty)) => {
        impl $crate::snap::Snap for $ty {
            fn save(&self) -> $crate::Value {
                self.0.save()
            }

            fn load(v: &$crate::Value) -> Result<Self, $crate::snap::SnapError> {
                <$inner as $crate::snap::Snap>::load(v).map($ty)
            }
        }
    };
    ($ty:ident $(<$g:ident>)? { $($f:ident),+ $(,)? }) => {
        impl $(<$g: $crate::snap::Snap>)? $crate::snap::Snap for $ty $(<$g>)? {
            fn save(&self) -> $crate::Value {
                $crate::snap::Enc::new()$(.put(&self.$f))+.done()
            }

            fn load(v: &$crate::Value) -> Result<Self, $crate::snap::SnapError> {
                let mut d = $crate::snap::Dec::new(v, stringify!($ty))?;
                Ok($ty { $($f: d.get()?),+ })
            }
        }
    };
}

/// Implements [`Snap`] for an enum as a record of the variant's code
/// followed by the variant's fields in the listed order.
///
/// ```
/// use picos_trace::snap::Snap;
///
/// #[derive(Debug, PartialEq)]
/// enum Op {
///     Idle,
///     Run(u32, u64),
///     Move { from: u16, to: u16 },
/// }
/// picos_trace::snap_enum!(Op {
///     0 => Idle,
///     1 => Run(task, at),
///     2 => Move { from, to },
/// });
///
/// for op in [Op::Idle, Op::Run(3, 9), Op::Move { from: 1, to: 2 }] {
///     assert_eq!(Op::load(&op.save()).unwrap(), op);
/// }
/// ```
#[macro_export]
macro_rules! snap_enum {
    (@get $d:ident $t:ident) => {
        $d.get()?
    };
    ($ty:ident {
        $($code:literal => $var:ident $(($($t:ident),+))? $({ $($f:ident),+ })?),+ $(,)?
    }) => {
        impl $crate::snap::Snap for $ty {
            fn save(&self) -> $crate::Value {
                match self {
                    $($ty::$var $(($($t),+))? $({ $($f),+ })? => $crate::snap::Enc::new()
                        .put::<u8>(&$code)
                        $($(.put($t))+)?
                        $($(.put($f))+)?
                        .done(),)+
                }
            }

            fn load(v: &$crate::Value) -> Result<Self, $crate::snap::SnapError> {
                let mut d = $crate::snap::Dec::new(v, stringify!($ty))?;
                Ok(match d.get::<u8>()? {
                    $($code => $ty::$var
                        $(($($crate::snap_enum!(@get d $t)),+))?
                        $({ $($f: d.get()?),+ })?,)+
                    other => {
                        return Err($crate::snap::SnapError::new(format!(
                            "unknown {} code {other}",
                            stringify!($ty)
                        )))
                    }
                })
            }
        }
    };
}

// ------------------------------------------------------------------ encoder

/// Positional record encoder: [`Enc::put`] the fields in declaration
/// order, take the resulting [`Value::Arr`] with [`Enc::done`].
#[derive(Debug, Default)]
#[must_use]
pub struct Enc {
    items: Vec<Value>,
}

impl Enc {
    /// An empty record.
    pub fn new() -> Self {
        Enc::default()
    }

    /// Appends one field.
    pub fn put<T: Snap>(mut self, v: &T) -> Self {
        self.items.push(v.save());
        self
    }

    /// Appends an already-encoded field (the state of a component that
    /// restores in place).
    pub fn val(mut self, v: Value) -> Self {
        self.items.push(v);
        self
    }

    /// The encoded record.
    pub fn done(self) -> Value {
        Value::Arr(self.items)
    }
}

// ------------------------------------------------------------------ decoder

/// Positional record decoder: [`Dec::get`] the fields back in the order
/// [`Enc`] put them. Running past the end or hitting the wrong shape
/// errors with the record label and field position. Trailing fields are
/// tolerated, so records can grow compatibly.
#[derive(Debug)]
pub struct Dec<'a> {
    items: &'a [Value],
    at: usize,
    what: &'a str,
}

impl<'a> Dec<'a> {
    /// Opens a positional record.
    ///
    /// # Errors
    ///
    /// Returns [`SnapError`] when `v` is not an array.
    pub fn new(v: &'a Value, what: &'a str) -> Result<Self, SnapError> {
        match v.as_array() {
            Some(items) => Ok(Dec { items, at: 0, what }),
            None => Err(SnapError::new(format!("{what}: expected a record array"))),
        }
    }

    /// Reads the next field as an encoded value (the state of a component
    /// that restores in place).
    ///
    /// # Errors
    ///
    /// Returns [`SnapError`] when the record is exhausted.
    pub fn val(&mut self) -> Result<&'a Value, SnapError> {
        let v = self
            .items
            .get(self.at)
            .ok_or_else(|| SnapError::new(format!("{}: record too short", self.what)))?;
        self.at += 1;
        Ok(v)
    }

    /// Reads the next field.
    ///
    /// # Errors
    ///
    /// Returns [`SnapError`] when the record is exhausted or the field does
    /// not decode as a `T`.
    pub fn get<T: Snap>(&mut self) -> Result<T, SnapError> {
        let v = self.val()?;
        T::load(v).map_err(|e| e.at(&format!("{}.{}", self.what, self.at - 1)))
    }

    /// Reads the next field, which must equal the restoring side's `want`
    /// (a config fingerprint or an attachment flag).
    ///
    /// # Errors
    ///
    /// Returns [`SnapError`] naming the guard on mismatch.
    pub fn expect<T: Snap + PartialEq + fmt::Debug>(
        &mut self,
        name: &str,
        want: &T,
    ) -> Result<(), SnapError> {
        let got: T = self.get()?;
        if &got == want {
            Ok(())
        } else {
            Err(SnapError::new(format!(
                "config mismatch on {name}: snapshot has {got:?}, session has {want:?}"
            )))
        }
    }

    /// Reads the next field as the encoded states of a per-unit table of
    /// exactly `n` units (its length is fixed by the session's config).
    ///
    /// # Errors
    ///
    /// Returns [`SnapError`] when the field is not an array of `n` items.
    pub fn units(&mut self, name: &str, n: usize) -> Result<&'a [Value], SnapError> {
        let what = self.what;
        let all = items(self.val()?).map_err(|e| e.at(&format!("{what}.{name}")))?;
        if all.len() == n {
            Ok(all)
        } else {
            Err(SnapError::new(format!(
                "{what}: {} {name} entries for {n} units",
                all.len()
            )))
        }
    }

    /// Reads the next field as a per-unit table of exactly `n` entries.
    ///
    /// # Errors
    ///
    /// Returns [`SnapError`] when the field is not an array of `n` items
    /// that decode as `T`.
    pub fn table<T: Snap>(&mut self, name: &str, n: usize) -> Result<Vec<T>, SnapError> {
        let what = self.what;
        self.units(name, n)?
            .iter()
            .enumerate()
            .map(|(i, v)| T::load(v).map_err(|e| e.at(&format!("{what}.{name}[{i}]"))))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Snap + PartialEq + fmt::Debug>(t: T) {
        let text = value_to_json(&t.save());
        let back = T::load(&value_from_json(&text).unwrap()).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn render_roundtrips_through_the_parser() {
        let v = Enc::new()
            .put(&u64::MAX)
            .put(&true)
            .put(&"we\"ird\n".to_string())
            .put(&None::<u64>)
            .put(&Some(7u64))
            .put(&vec![1u32, 2, 3])
            .put(&vec![(4u64, true), (5, false)])
            .done();
        let text = value_to_json(&v);
        let back = value_from_json(&text).unwrap();
        assert_eq!(v, back, "exact tree roundtrip, u64::MAX kept exact");
    }

    #[test]
    fn decoder_reads_fields_in_order() {
        let v = Enc::new()
            .put(&9u64)
            .put(&false)
            .put(&"x".to_string())
            .put(&vec![3u32, 4])
            .done();
        let mut d = Dec::new(&v, "t").unwrap();
        assert_eq!(d.get::<u64>().unwrap(), 9);
        assert!(!d.get::<bool>().unwrap());
        assert_eq!(d.get::<String>().unwrap(), "x");
        assert_eq!(d.get::<Vec<u32>>().unwrap(), vec![3, 4]);
        assert!(d.val().is_err(), "record fully consumed");
    }

    #[test]
    fn decoder_errors_name_the_record() {
        let v = Value::Arr(vec![Value::Bool(true)]);
        let mut d = Dec::new(&v, "wheel").unwrap();
        let err = d.get::<u64>().unwrap_err();
        assert!(err.message.contains("wheel"), "{err}");
        let err = d.get::<u64>().unwrap_err();
        assert!(err.message.contains("record too short"), "{err}");
    }

    #[test]
    fn expect_rejects_config_mismatch() {
        let v = Enc::new().put(&4u64).put(&4u64).done();
        let mut d = Dec::new(&v, "t").unwrap();
        assert!(d.expect("workers", &4u64).is_ok());
        let err = d.expect("workers", &8u64).unwrap_err();
        assert!(err.message.contains("workers"), "{err}");
    }

    #[test]
    fn narrow_integers_reject_values_that_do_not_fit() {
        assert_eq!(u8::load(&Value::Int(255)), Ok(255));
        assert!(u8::load(&Value::Int(256)).is_err());
        assert!(u16::load(&Value::Int(1 << 16)).is_err());
        assert!(u32::load(&Value::Int(1 << 32)).is_err());
        assert!(u64::load(&Value::Bool(true)).is_err());
    }

    #[test]
    fn containers_roundtrip() {
        roundtrip(vec![Some(1u8), None]);
        roundtrip(VecDeque::from([3u16, 1, 2]));
        roundtrip::<Arc<[u64]>>(Arc::from(vec![5u64, 6]));
        roundtrip([7u64, 8, 9]);
        roundtrip(BTreeSet::from([(2u64, 1u32), (1, 9)]));
        roundtrip((1u8, 2u16, 3u32, 4u64, (true, "s".to_string())));
        let heap: BinaryHeap<Reverse<u32>> = [4, 1, 3].into_iter().map(Reverse).collect();
        let back = BinaryHeap::<Reverse<u32>>::load(&heap.save()).unwrap();
        assert_eq!(back.into_sorted_vec(), heap.into_sorted_vec());
        assert!(<[u64; 2]>::load(&vec![1u64].save()).is_err());
    }

    #[test]
    fn unordered_containers_encode_in_ascending_order() {
        let a: HashMap<u32, bool> = (0..50).map(|i| (i, i % 3 == 0)).collect();
        let b: HashMap<u32, bool> = (0..50).rev().map(|i| (i, i % 3 == 0)).collect();
        assert_eq!(a.save(), b.save());
        assert_eq!(HashMap::<u32, bool>::load(&a.save()).unwrap(), a);
        let s: HashSet<u32> = [9, 2, 5].into();
        assert_eq!(s.save(), vec![2u32, 5, 9].save());
        assert_eq!(HashSet::<u32>::load(&s.save()).unwrap(), s);
    }

    #[test]
    fn table_checks_its_length() {
        let v = Enc::new().put(&vec![1u64, 2]).put(&vec![1u64]).done();
        let mut d = Dec::new(&v, "t").unwrap();
        assert_eq!(d.table::<u64>("busy", 2).unwrap(), vec![1, 2]);
        assert!(d.table::<u64>("busy", 2).is_err());
    }

    #[test]
    fn fingerprint_is_fnv_over_words() {
        assert_eq!(fingerprint([]), FNV_OFFSET);
        assert_eq!(fingerprint([1]), (FNV_OFFSET ^ 1).wrapping_mul(FNV_PRIME));
        assert_ne!(fingerprint([1, 2]), fingerprint([2, 1]));
    }
}
