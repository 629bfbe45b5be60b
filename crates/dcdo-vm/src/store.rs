//! Persistent object state.
//!
//! Implementation components "may also contain a set of internal data
//! structures, but these data structures must be accessed from outside the
//! component by calling the component's exported dynamic functions" (§2).
//! A [`ValueStore`] is that internal data: a named-slot store that survives
//! across invocations, is readable/writable only from bytecode
//! (`GlobalGet`/`GlobalSet`), and is what Legion state capture serializes
//! when an object migrates or evolves.

use std::collections::BTreeMap;
use std::rc::Rc;

use serde::{Deserialize, Serialize};

use crate::codec::{read_value, write_value, DecodeError, Reader, Writer};
use crate::value::Value;

/// The persistent internal state of an active object.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ValueStore {
    slots: BTreeMap<Rc<str>, Value>,
}

impl ValueStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        ValueStore::default()
    }

    /// Reads a slot; absent slots read as [`Value::Unit`].
    pub fn get(&self, key: &str) -> Value {
        self.slots.get(key).cloned().unwrap_or(Value::Unit)
    }

    /// Writes a slot, returning the previous value if any.
    pub fn set(&mut self, key: impl Into<Rc<str>>, value: Value) -> Option<Value> {
        self.slots.insert(key.into(), value)
    }

    /// Writes a slot by borrowed key (`GlobalSet`): an existing slot is
    /// overwritten in place, so only a slot's first write allocates a key.
    pub(crate) fn assign(&mut self, key: &str, value: Value) {
        match self.slots.get_mut(key) {
            Some(slot) => *slot = value,
            None => {
                self.slots.insert(Rc::from(key), value);
            }
        }
    }

    /// Removes a slot.
    pub fn remove(&mut self, key: &str) -> Option<Value> {
        self.slots.remove(key)
    }

    /// Number of occupied slots.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Returns `true` if no slots are occupied.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Approximate in-memory size, used for state-capture cost accounting.
    pub fn approx_size(&self) -> u64 {
        self.slots
            .iter()
            .map(|(k, v)| k.len() as u64 + v.approx_size())
            .sum()
    }

    /// The length of [`capture`](ValueStore::capture)'s encoding: a slot
    /// count, then each key's length and bytes and its value's
    /// [`Value::approx_size`] bytes.
    fn encoded_len(&self) -> usize {
        let slots = self.slots.iter();
        4 + slots
            .map(|(k, v)| 4 + k.len() + v.approx_size() as usize)
            .sum::<usize>()
    }

    /// Serializes the store (Legion state capture) into a buffer sized
    /// once.
    pub fn capture(&self) -> bytes::Bytes {
        let mut w = Writer::with_capacity(self.encoded_len());
        w.u32(self.slots.len() as u32);
        for (k, v) in &self.slots {
            w.str(k);
            write_value(&mut w, v);
        }
        w.finish()
    }

    /// Deserializes a captured store (Legion state restore).
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] on malformed input.
    pub fn restore(bytes: bytes::Bytes) -> Result<Self, DecodeError> {
        let mut r = Reader::new(bytes);
        let n = r.read_len()?;
        let mut slots = BTreeMap::new();
        for _ in 0..n {
            let key: Rc<str> = r.str_with(|s| s.into())?;
            let value = read_value(&mut r)?;
            slots.insert(key, value);
        }
        Ok(ValueStore { slots })
    }

    /// Iterates over slots in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Value)> {
        self.slots.iter().map(|(k, v)| (k.as_ref(), v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absent_slots_read_unit() {
        let store = ValueStore::new();
        assert_eq!(store.get("missing"), Value::Unit);
        assert!(store.is_empty());
    }

    #[test]
    fn set_get_remove() {
        let mut store = ValueStore::new();
        assert_eq!(store.set("count", Value::Int(1)), None);
        assert_eq!(store.set("count", Value::Int(2)), Some(Value::Int(1)));
        assert_eq!(store.get("count"), Value::Int(2));
        assert_eq!(store.len(), 1);
        assert_eq!(store.remove("count"), Some(Value::Int(2)));
        assert!(store.is_empty());
    }

    #[test]
    fn capture_restore_round_trips() {
        let mut store = ValueStore::new();
        store.set("name", Value::str("svc"));
        store.set("hits", Value::Int(42));
        store.set("log", Value::List(vec![Value::str("a"), Value::str("b")]));
        store.set("flags", Value::List(vec![Value::Bool(true), Value::Unit]));
        store.set("peer", Value::ObjRef(dcdo_types::ObjectId::from_raw(7)));
        let captured = store.capture();
        assert_eq!(captured.len(), store.encoded_len(), "sized exactly");
        let restored = ValueStore::restore(captured).expect("round trip");
        assert_eq!(restored, store);
    }

    #[test]
    fn restore_rejects_garbage() {
        assert!(ValueStore::restore(bytes::Bytes::from_static(&[1, 2, 3])).is_err());
    }

    #[test]
    fn approx_size_grows() {
        let mut store = ValueStore::new();
        let empty = store.approx_size();
        store.set("payload", Value::str("x".repeat(100)));
        assert!(store.approx_size() > empty + 100);
    }

    #[test]
    fn iter_in_key_order() {
        let mut store = ValueStore::new();
        store.set("b", Value::Int(2));
        store.set("a", Value::Int(1));
        let keys: Vec<&str> = store.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec!["a", "b"]);
    }
}
