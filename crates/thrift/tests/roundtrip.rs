//! Property tests for the one structural walk, `CompactReader::skip`:
//! arbitrary nested values, written with the writer's primitives, are
//! skipped exactly; every truncation of them is an error; and arbitrary
//! byte soup never panics the walk.

use proptest::prelude::*;

use uli_thrift::{CompactReader, CompactWriter, TType};

/// A value as a test writes it. Lists hold one kind, and map keys are
/// strings; in element position only the kinds the writer has a bare
/// primitive for appear (integers, strings, lists, maps, structs).
#[derive(Debug, Clone)]
enum Value {
    Bool(bool),
    I8(i8),
    I16(i16),
    I32(i32),
    I64(i64),
    Double(f64),
    Str(String),
    /// A string→string map, which the writer writes as a field.
    StrMap(Vec<(String, String)>),
    List(Vec<Value>),
    Map(Vec<(String, Value)>),
    /// Fields with ascending ids.
    Struct(Vec<(i16, Value)>),
}

impl Value {
    fn ttype(&self) -> TType {
        match self {
            Value::Bool(true) => TType::BoolTrue,
            Value::Bool(false) => TType::BoolFalse,
            Value::I8(_) => TType::I8,
            Value::I16(_) => TType::I16,
            Value::I32(_) => TType::I32,
            Value::I64(_) => TType::I64,
            Value::Double(_) => TType::Double,
            Value::Str(_) => TType::Binary,
            Value::StrMap(_) | Value::Map(_) => TType::Map,
            Value::List(_) => TType::List,
            Value::Struct(_) => TType::Struct,
        }
    }

    fn write_field(&self, w: &mut CompactWriter, id: i16) {
        match self {
            Value::Bool(v) => w.field_bool(id, *v),
            Value::I8(v) => w.field_i8(id, *v),
            Value::I16(v) => w.field_i16(id, *v),
            Value::I32(v) => w.field_i32(id, *v),
            Value::I64(v) => w.field_i64(id, *v),
            Value::Double(v) => w.field_double(id, *v),
            Value::Str(s) => w.field_string(id, s),
            Value::StrMap(entries) => {
                w.field_string_map(id, entries.iter().map(|(k, v)| (k, v)));
            }
            Value::List(items) => {
                w.field_list_begin(id, items.len(), elem_type(items));
                items.iter().for_each(|item| item.write_element(w));
            }
            // The writer's one map field is a string map: any other map
            // stands in a one-element list.
            Value::Map(_) => {
                w.field_list_begin(id, 1, TType::Map);
                self.write_element(w);
            }
            Value::Struct(fields) => {
                w.field_struct_begin(id);
                write_fields(w, fields);
            }
        }
    }

    fn write_element(&self, w: &mut CompactWriter) {
        match self {
            Value::I16(v) => w.write_raw_i64(i64::from(*v)),
            Value::I32(v) => w.write_raw_i64(i64::from(*v)),
            Value::I64(v) => w.write_raw_i64(*v),
            Value::Str(s) => w.write_raw_string(s),
            Value::List(items) => {
                w.list_begin(items.len(), elem_type(items));
                items.iter().for_each(|item| item.write_element(w));
            }
            Value::Map(entries) => {
                let value = entries.first().map_or(TType::Binary, |(_, v)| v.ttype());
                w.map_begin(entries.len(), TType::Binary, value);
                for (k, v) in entries {
                    w.write_raw_string(k);
                    v.write_element(w);
                }
            }
            Value::Struct(fields) => {
                w.struct_begin();
                write_fields(w, fields);
            }
            other => unreachable!("{other:?} has no bare writer"),
        }
    }
}

fn elem_type(items: &[Value]) -> TType {
    items.first().map_or(TType::I64, Value::ttype)
}

/// Writes `fields` and the struct's stop byte.
fn write_fields(w: &mut CompactWriter, fields: &[(i16, Value)]) {
    for (id, v) in fields {
        v.write_field(w, *id);
    }
    w.struct_end();
}

/// Field ids ascending from 1 by gaps of 1 to 40, so that both the delta
/// and the long header form occur.
fn with_ids(values: Vec<(u8, Value)>) -> Vec<(i16, Value)> {
    let mut id = 0i16;
    values
        .into_iter()
        .map(|(gap, v)| {
            id += i16::from(gap % 40) + 1;
            (id, v)
        })
        .collect()
}

/// The kinds only a field can hold.
fn arb_field_leaf() -> BoxedStrategy<Value> {
    prop_oneof![
        any::<bool>().prop_map(Value::Bool),
        any::<i8>().prop_map(Value::I8),
        prop::num::f64::NORMAL.prop_map(Value::Double),
        prop::collection::vec(("[a-z]{0,6}", "\\PC{0,6}"), 0..4).prop_map(Value::StrMap),
    ]
    .boxed()
}

/// Values that may stand as a list element or a map value, nested up to
/// three deep; a struct among them holds any field.
fn arb_element() -> BoxedStrategy<Value> {
    let leaf = prop_oneof![
        any::<i16>().prop_map(Value::I16),
        any::<i32>().prop_map(Value::I32),
        any::<i64>().prop_map(Value::I64),
        "\\PC{0,24}".prop_map(Value::Str),
    ];
    leaf.prop_recursive(3, 32, 4, |inner| {
        prop_oneof![
            // One kind a list: the element replicated, past 15 for the
            // extended header now and then.
            (inner.clone(), prop_oneof![0usize..4, 15usize..20])
                .prop_map(|(v, n)| Value::List(vec![v; n])),
            (prop::collection::vec("[a-z]{0,6}", 0..4), inner.clone()).prop_map(|(keys, v)| {
                Value::Map(keys.into_iter().map(|k| (k, v.clone())).collect())
            }),
            prop::collection::vec((any::<u8>(), prop_oneof![arb_field_leaf(), inner]), 0..4)
                .prop_map(|fields| Value::Struct(with_ids(fields))),
        ]
    })
    .boxed()
}

/// A struct of arbitrary fields, each followed by an `i64` sentinel field
/// holding its own id, encoded.
fn arb_record() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(
        (any::<u8>(), prop_oneof![arb_field_leaf(), arb_element()]),
        0..6,
    )
    .prop_map(|fields| {
        let mut w = CompactWriter::new();
        w.struct_begin();
        for (id, v) in with_ids(fields) {
            let id = id * 2;
            v.write_field(&mut w, id);
            w.field_i64(id + 1, i64::from(id + 1));
        }
        w.struct_end();
        w.into_bytes()
    })
}

/// Skips one whole struct from the front of `bytes`; the bytes left.
fn skip_struct(bytes: &[u8]) -> Result<usize, uli_thrift::ThriftError> {
    let mut r = CompactReader::new(bytes);
    r.skip(TType::Struct)?;
    Ok(r.remaining())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The walk consumes a record exactly, and each field exactly: after
    /// every skipped field the stream stands at its sentinel.
    #[test]
    fn nested_values_are_skipped_exactly(bytes in arb_record()) {
        prop_assert_eq!(skip_struct(&bytes), Ok(0));
        let mut r = CompactReader::new(&bytes);
        r.struct_begin().unwrap();
        while let Some(h) = r.field_begin().unwrap() {
            r.skip(h.ttype).unwrap();
            let sentinel = r.field_begin().unwrap().expect("a sentinel follows");
            prop_assert_eq!((sentinel.id, sentinel.ttype), (h.id + 1, TType::I64));
            prop_assert_eq!(r.read_i64().unwrap(), i64::from(sentinel.id));
        }
        r.struct_end();
        prop_assert_eq!(r.remaining(), 0);
    }

    /// Every proper prefix of a record is an error, never a panic and never
    /// a shorter struct.
    #[test]
    fn every_truncation_is_an_error(bytes in arb_record()) {
        for cut in 0..bytes.len() {
            prop_assert!(skip_struct(&bytes[..cut]).is_err(), "cut at {}", cut);
        }
    }

    /// Byte soup never panics the walk, and an accepted prefix is never
    /// longer than the input.
    #[test]
    fn byte_soup_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        if let Ok(left) = skip_struct(&bytes) {
            prop_assert!(left < bytes.len());
        }
    }
}
