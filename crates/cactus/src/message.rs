//! Messages passed between protocol layers.
//!
//! One of the paper's modifications to Cactus is the elimination of message
//! copies between layers: "only a pointer to message is passed between
//! layers". We reproduce that property with [`bytes::Bytes`] bodies (cheap
//! reference-counted slices) and a header stack kept *next to* the body, so
//! pushing or popping a header never copies the payload.

use bytes::Bytes;
use std::collections::HashMap;

/// Typed attribute values attached to a message by micro-protocols
/// (sequence numbers, flags, timestamps, ...).
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    /// Unsigned integer attribute.
    U64(u64),
    /// Floating point attribute.
    F64(f64),
    /// Boolean flag.
    Flag(bool),
    /// Opaque bytes.
    Bytes(Bytes),
}

/// A protocol message: an immutable payload plus a stack of headers and a map
/// of attributes. Cloning a `Message` is cheap (the payload is shared).
#[derive(Debug, Clone, Default)]
pub struct Message {
    payload: Bytes,
    headers: Vec<(&'static str, Bytes)>,
    attrs: HashMap<&'static str, AttrValue>,
}

impl Message {
    /// Create a message wrapping `payload` without copying it.
    pub fn new(payload: Bytes) -> Self {
        Self {
            payload,
            headers: Vec::new(),
            attrs: HashMap::new(),
        }
    }

    /// Create a message from a static byte slice (no allocation).
    pub fn from_static(payload: &'static [u8]) -> Self {
        Self::new(Bytes::from_static(payload))
    }

    /// The user payload (without headers).
    pub fn payload(&self) -> &Bytes {
        &self.payload
    }

    /// Payload length in bytes.
    pub fn payload_len(&self) -> usize {
        self.payload.len()
    }

    /// Total length on the wire: payload plus all pushed headers.
    pub fn wire_len(&self) -> usize {
        self.payload.len() + self.headers.iter().map(|(_, h)| h.len()).sum::<usize>()
    }

    /// Push a named header onto the header stack (layer-to-layer, no payload
    /// copy).
    pub fn push_header(&mut self, name: &'static str, header: Bytes) {
        self.headers.push((name, header));
    }

    /// Pop the most recently pushed header; returns `None` when no headers
    /// remain.
    pub fn pop_header(&mut self) -> Option<(&'static str, Bytes)> {
        self.headers.pop()
    }

    /// Peek at the top header without removing it.
    pub fn top_header(&self) -> Option<(&'static str, &Bytes)> {
        self.headers.last().map(|(n, b)| (*n, b))
    }

    /// Number of headers currently pushed.
    pub fn header_count(&self) -> usize {
        self.headers.len()
    }

    /// Set an attribute.
    pub fn set_attr(&mut self, key: &'static str, value: AttrValue) {
        self.attrs.insert(key, value);
    }

    /// Convenience: set an integer attribute.
    pub fn set_u64(&mut self, key: &'static str, value: u64) {
        self.set_attr(key, AttrValue::U64(value));
    }

    /// Convenience: set a float attribute.
    pub fn set_f64(&mut self, key: &'static str, value: f64) {
        self.set_attr(key, AttrValue::F64(value));
    }

    /// Convenience: set a boolean flag.
    pub fn set_flag(&mut self, key: &'static str, value: bool) {
        self.set_attr(key, AttrValue::Flag(value));
    }

    /// Read an attribute.
    pub fn attr(&self, key: &str) -> Option<&AttrValue> {
        self.attrs.get(key)
    }

    /// Read an integer attribute.
    pub fn u64(&self, key: &str) -> Option<u64> {
        match self.attrs.get(key) {
            Some(AttrValue::U64(v)) => Some(*v),
            _ => None,
        }
    }

    /// Read a float attribute.
    pub fn f64(&self, key: &str) -> Option<f64> {
        match self.attrs.get(key) {
            Some(AttrValue::F64(v)) => Some(*v),
            _ => None,
        }
    }

    /// Read a boolean flag (false when absent).
    pub fn flag(&self, key: &str) -> bool {
        matches!(self.attrs.get(key), Some(AttrValue::Flag(true)))
    }

    /// Remove an attribute, returning its previous value.
    pub fn take_attr(&mut self, key: &str) -> Option<AttrValue> {
        self.attrs.remove(key)
    }

    /// True when the payload shares storage with `other`'s payload (i.e. no
    /// copy was made). Used by tests asserting the zero-copy property.
    pub fn shares_payload_with(&self, other: &Message) -> bool {
        self.payload.as_ptr() == other.payload.as_ptr() && self.payload.len() == other.payload.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn headers_are_a_stack() {
        let mut m = Message::from_static(b"body");
        m.push_header("transport", Bytes::from_static(b"T"));
        m.push_header("physical", Bytes::from_static(b"P"));
        assert_eq!(m.header_count(), 2);
        assert_eq!(m.wire_len(), 4 + 1 + 1);
        assert_eq!(m.top_header().unwrap().0, "physical");
        assert_eq!(m.pop_header().unwrap().0, "physical");
        assert_eq!(m.pop_header().unwrap().0, "transport");
        assert!(m.pop_header().is_none());
    }

    #[test]
    fn cloning_does_not_copy_payload() {
        let payload = Bytes::from(vec![7u8; 1024]);
        let m1 = Message::new(payload);
        let m2 = m1.clone();
        assert!(m1.shares_payload_with(&m2));
    }

    #[test]
    fn attributes_round_trip() {
        let mut m = Message::from_static(b"x");
        m.set_u64("seq", 42);
        m.set_f64("rtt", 0.5);
        m.set_flag("ack", true);
        assert_eq!(m.u64("seq"), Some(42));
        assert_eq!(m.f64("rtt"), Some(0.5));
        assert!(m.flag("ack"));
        assert!(!m.flag("missing"));
        assert_eq!(m.take_attr("seq"), Some(AttrValue::U64(42)));
        assert_eq!(m.u64("seq"), None);
    }

    #[test]
    fn type_mismatch_reads_none() {
        let mut m = Message::default();
        m.set_flag("x", true);
        assert_eq!(m.u64("x"), None);
        assert_eq!(m.f64("x"), None);
    }
}
