//! Attribute values and dictionary encoding.
//!
//! Objective attribute values (cities, cuisines, age groups, …) are interned
//! into per-attribute dictionaries. Rows then store compact [`ValueId`]
//! codes, which is what makes the GroupBy scans of the exploration engine
//! cache-friendly: a scan reads a dense `u32` vector, never a string.

use std::collections::HashMap;

/// Dictionary code for a value of one attribute. Codes are dense
/// (`0..dictionary.len()`), so per-value accumulators can be flat vectors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ValueId(pub u32);

impl ValueId {
    /// The code as a usable index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// An attribute value as seen by users of the library.
///
/// The store is agnostic to value semantics; strings cover categorical
/// attributes and integers cover things like release years. Both are
/// interned identically.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Value {
    /// A categorical / textual value.
    Str(String),
    /// An integral value (years, zip prefixes, …).
    Int(i64),
}

impl Value {
    /// Convenience constructor from anything string-like.
    pub fn str(s: impl Into<String>) -> Self {
        Value::Str(s.into())
    }

    /// Convenience constructor for integers.
    pub fn int(v: i64) -> Self {
        Value::Int(v)
    }
}

impl std::fmt::Display for Value {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Value::Str(s) => f.write_str(s),
            Value::Int(v) => write!(f, "{v}"),
        }
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_owned())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s)
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

/// An interning dictionary for one attribute.
///
/// Maps [`Value`]s to dense [`ValueId`] codes and back. Insertion order
/// defines codes, so data loaded deterministically yields deterministic
/// encodings (important for reproducible experiments).
#[derive(Debug, Clone, Default)]
pub struct Dictionary {
    values: Vec<Value>,
    codes: HashMap<Value, ValueId>,
}

impl Dictionary {
    /// Creates an empty dictionary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Rebuilds a dictionary from its code-ordered value list (the inverse
    /// of serializing [`iter`](Self::iter)). Fails on duplicate values,
    /// which could never have been produced by interning.
    pub fn from_values(values: Vec<Value>) -> Result<Self, crate::error::StoreError> {
        let mut codes = HashMap::with_capacity(values.len());
        for (i, v) in values.iter().enumerate() {
            if codes.insert(v.clone(), ValueId(i as u32)).is_some() {
                return Err(crate::error::StoreError::invalid(format!(
                    "dictionary value {v} appears twice"
                )));
            }
        }
        Ok(Self { values, codes })
    }

    /// Interns `value`, returning its (possibly pre-existing) code.
    pub fn intern(&mut self, value: Value) -> ValueId {
        if let Some(&id) = self.codes.get(&value) {
            return id;
        }
        let id = ValueId(u32::try_from(self.values.len()).expect("dictionary overflow"));
        self.values.push(value.clone());
        self.codes.insert(value, id);
        id
    }

    /// Looks up the code of `value` without interning.
    pub fn code(&self, value: &Value) -> Option<ValueId> {
        self.codes.get(value).copied()
    }

    /// Resolves a code back to its value.
    ///
    /// # Panics
    /// Panics if the code is out of range (codes from a different
    /// dictionary).
    pub fn value(&self, id: ValueId) -> &Value {
        &self.values[id.index()]
    }

    /// Number of distinct values.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the dictionary is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Iterates `(code, value)` pairs in code order.
    pub fn iter(&self) -> impl Iterator<Item = (ValueId, &Value)> {
        self.values
            .iter()
            .enumerate()
            .map(|(i, v)| (ValueId(i as u32), v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut d = Dictionary::new();
        let a = d.intern(Value::str("NYC"));
        let b = d.intern(Value::str("Austin"));
        let a2 = d.intern(Value::str("NYC"));
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn codes_are_dense_in_insertion_order() {
        let mut d = Dictionary::new();
        for (i, name) in ["a", "b", "c"].iter().enumerate() {
            let id = d.intern(Value::str(*name));
            assert_eq!(id.index(), i);
        }
    }

    #[test]
    fn round_trip() {
        let mut d = Dictionary::new();
        let id = d.intern(Value::int(1999));
        assert_eq!(d.value(id), &Value::Int(1999));
        assert_eq!(d.code(&Value::Int(1999)), Some(id));
        assert_eq!(d.code(&Value::Int(2000)), None);
    }

    #[test]
    fn str_and_int_are_distinct() {
        let mut d = Dictionary::new();
        let a = d.intern(Value::str("5"));
        let b = d.intern(Value::int(5));
        assert_ne!(a, b);
    }

    #[test]
    fn iter_yields_all() {
        let mut d = Dictionary::new();
        d.intern(Value::str("x"));
        d.intern(Value::str("y"));
        let pairs: Vec<_> = d
            .iter()
            .map(|(id, v)| (id.index(), v.to_string()))
            .collect();
        assert_eq!(pairs, vec![(0, "x".to_owned()), (1, "y".to_owned())]);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Value::str("SoHo").to_string(), "SoHo");
        assert_eq!(Value::int(-3).to_string(), "-3");
    }
}
