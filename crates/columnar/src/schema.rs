//! Table schemas: named, typed fields.

use crate::column::DataType;
use crate::error::{Error, Result};

/// A named, typed field in a table schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Field {
    name: String,
    data_type: DataType,
}

impl Field {
    /// Creates a field.
    pub fn new(name: impl Into<String>, data_type: DataType) -> Self {
        Self {
            name: name.into(),
            data_type,
        }
    }

    /// The field name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The field type.
    pub fn data_type(&self) -> DataType {
        self.data_type
    }
}

/// An ordered collection of fields.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Schema {
    fields: Vec<Field>,
}

impl Schema {
    /// Creates a schema from fields.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidData`] on duplicate field names.
    pub fn new(fields: Vec<Field>) -> Result<Self> {
        for (i, f) in fields.iter().enumerate() {
            if fields[..i].iter().any(|g| g.name == f.name) {
                return Err(Error::invalid(format!("duplicate field name: {}", f.name)));
            }
        }
        Ok(Self { fields })
    }

    /// The fields in declaration order.
    pub fn fields(&self) -> &[Field] {
        &self.fields
    }

    /// Number of fields.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// Whether the schema has no fields.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// Index of the field named `name`.
    pub fn index_of(&self, name: &str) -> Result<usize> {
        self.fields
            .iter()
            .position(|f| f.name == name)
            .ok_or_else(|| Error::ColumnNotFound(name.to_owned()))
    }

    /// The field named `name`.
    pub fn field(&self, name: &str) -> Result<&Field> {
        Ok(&self.fields[self.index_of(name)?])
    }

    /// Writes `n_fields (u16) | per field: name_len (u16) | name | dtype (u8)`
    /// — the schema form stored in the table footer. Call sites that must
    /// reject oversized schemas validate before writing (see
    /// `validate_serializable`).
    pub fn write_to(&self, buf: &mut impl bytes::BufMut) {
        buf.put_u16_le(self.fields.len() as u16);
        for f in &self.fields {
            buf.put_u16_le(f.name.len() as u16);
            buf.put_slice(f.name.as_bytes());
            buf.put_u8(dtype_tag(f.data_type));
        }
    }

    /// Checks this schema fits the serialized layout's width limits
    /// (`u16` field count, `u16` name bytes).
    ///
    /// # Errors
    ///
    /// [`Error::InvalidData`] naming the offending field.
    pub fn validate_serializable(&self) -> Result<()> {
        if self.fields.len() > u16::MAX as usize {
            return Err(Error::invalid(format!(
                "schema has {} fields; the serialized format caps at {}",
                self.fields.len(),
                u16::MAX
            )));
        }
        for f in &self.fields {
            if f.name.len() > u16::MAX as usize {
                return Err(Error::invalid(format!(
                    "field name of {} bytes exceeds the u16 name-length field",
                    f.name.len()
                )));
            }
        }
        Ok(())
    }

    /// Reads back a [`write_to`](Self::write_to) payload.
    ///
    /// # Errors
    ///
    /// [`Error::Corrupt`] on truncation, non-UTF-8 names, unknown type tags
    /// or duplicate field names.
    pub fn read_from(buf: &mut impl bytes::Buf) -> Result<Self> {
        if buf.remaining() < 2 {
            return Err(Error::corrupt("schema header truncated"));
        }
        let n = buf.get_u16_le() as usize;
        let mut fields = Vec::with_capacity(n);
        for _ in 0..n {
            if buf.remaining() < 2 {
                return Err(Error::corrupt("schema field header truncated"));
            }
            let name_len = buf.get_u16_le() as usize;
            if buf.remaining() < name_len + 1 {
                return Err(Error::corrupt("schema field truncated"));
            }
            let mut name = vec![0u8; name_len];
            buf.copy_to_slice(&mut name);
            let name =
                String::from_utf8(name).map_err(|_| Error::corrupt("field name not UTF-8"))?;
            let data_type = dtype_from_tag(buf.get_u8())?;
            fields.push(Field::new(name, data_type));
        }
        Self::new(fields).map_err(|_| Error::corrupt("duplicate field names in schema"))
    }
}

fn dtype_tag(dt: DataType) -> u8 {
    match dt {
        DataType::Int64 => 0,
        DataType::Date => 1,
        DataType::Timestamp => 2,
        DataType::Utf8 => 3,
    }
}

fn dtype_from_tag(tag: u8) -> Result<DataType> {
    match tag {
        0 => Ok(DataType::Int64),
        1 => Ok(DataType::Date),
        2 => Ok(DataType::Timestamp),
        3 => Ok(DataType::Utf8),
        t => Err(Error::corrupt(format!("unknown data type tag {t}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Schema {
        Schema::new(vec![
            Field::new("shipdate", DataType::Date),
            Field::new("commitdate", DataType::Date),
            Field::new("receiptdate", DataType::Date),
        ])
        .unwrap()
    }

    #[test]
    fn lookup_by_name() {
        let s = sample();
        assert_eq!(s.len(), 3);
        assert_eq!(s.index_of("commitdate").unwrap(), 1);
        assert_eq!(s.field("receiptdate").unwrap().data_type(), DataType::Date);
        assert!(matches!(
            s.index_of("missing"),
            Err(Error::ColumnNotFound(_))
        ));
    }

    #[test]
    fn rejects_duplicates() {
        let r = Schema::new(vec![
            Field::new("a", DataType::Int64),
            Field::new("a", DataType::Utf8),
        ]);
        assert!(r.is_err());
    }

    #[test]
    fn empty_schema() {
        let s = Schema::default();
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
    }

    #[test]
    fn serialization_roundtrip() {
        for schema in [
            sample(),
            Schema::default(),
            Schema::new(vec![
                Field::new("n", DataType::Int64),
                Field::new("s", DataType::Utf8),
                Field::new("t", DataType::Timestamp),
            ])
            .unwrap(),
        ] {
            let mut buf = Vec::new();
            schema.write_to(&mut buf);
            assert_eq!(Schema::read_from(&mut buf.as_slice()).unwrap(), schema);
            for cut in 0..buf.len() {
                assert!(Schema::read_from(&mut &buf[..cut]).is_err(), "cut {cut}");
            }
        }
        assert!(sample().validate_serializable().is_ok());
    }

    #[test]
    fn serialization_rejects_bad_tag_and_duplicates() {
        let mut buf = Vec::new();
        sample().write_to(&mut buf);
        let tag_at = buf.len() - 1;
        buf[tag_at] = 200;
        assert!(Schema::read_from(&mut buf.as_slice()).is_err());
        // Hand-built payload with two identical names.
        let mut dup = Vec::new();
        dup.extend_from_slice(&2u16.to_le_bytes());
        for _ in 0..2 {
            dup.extend_from_slice(&1u16.to_le_bytes());
            dup.push(b'a');
            dup.push(0);
        }
        assert!(Schema::read_from(&mut dup.as_slice()).is_err());
    }
}
