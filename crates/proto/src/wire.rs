//! The wire table's machinery: one [`Wire`] trait saying how a value is
//! laid out on the wire, and the two `macro_rules!` tables
//! (`wire_records!`, `wire_messages!`) that `message.rs` fills in —
//! one row per record and per message, fields in wire order.
//!
//! A row is the only statement of a layout. From it the macros derive the
//! encoder, the decoder, the shortest possible encoding `MIN_LEN` (every
//! field's minimum, summed) that bounds list counts, and the field-name
//! schema that tests and `docs/PROTOCOL.md` are checked against. Rows
//! destructure their type exhaustively, so a field missing from its row
//! does not compile. Marshaling stays hand-rolled XDR: the macros only
//! spell out the `put_*`/`get_*` calls a person would write. There is one
//! layout, that of [`VERSION`](crate::VERSION): a frame of any other
//! version is refused at its header, so changing a row means bumping it.
//!
//! A message row may also name a *view* (`tag Name => View<'a> { field:
//! type, … }`): the row then declares a `Copy` struct with the variant's
//! fields in wire order, text and lists borrowed, whose encoder is the
//! row's, and the owned variant encodes by lending its fields to it — so
//! a sender can marshal straight from data it does not own, with no second
//! statement of the layout.

use netsolve_core::data::DataObject;
use netsolve_core::error::Result;
use netsolve_xdr::{decode_list, decode_objects, encode_objects, Decoder, Encoder};

/// A value with one wire layout.
pub(crate) trait Wire: Sized {
    /// Fewest bytes a value can occupy: what a list decoder divides the
    /// remaining payload by to bound an untrusted count.
    const MIN_LEN: usize;
    /// A record's field names in wire order; empty for primitives.
    const FIELDS: &'static [&'static str] = &[];
    /// Append the encoding.
    fn put(&self, e: &mut Encoder<'_>);
    /// Decode a value.
    fn get(d: &mut Decoder<'_>) -> Result<Self>;
}

/// `MIN_LEN` of the field a projection returns, so a record's row can
/// name its fields without repeating their types.
pub(crate) const fn min_len<R, T: Wire>(_field: fn(&R) -> &T) -> usize {
    T::MIN_LEN
}

macro_rules! wire_primitive {
    ($($ty:ty, $len:literal, $put:ident, $get:ident;)*) => {$(
        impl Wire for $ty {
            const MIN_LEN: usize = $len;
            fn put(&self, e: &mut Encoder<'_>) {
                e.$put(*self);
            }
            fn get(d: &mut Decoder<'_>) -> Result<Self> {
                d.$get()
            }
        }
    )*};
}

wire_primitive! {
    u32, 4, put_u32, get_u32;
    u64, 8, put_u64, get_u64;
    i64, 8, put_i64, get_i64; // two's complement on the wire
    f64, 8, put_f64, get_f64;
    bool, 4, put_bool, get_bool;
}

impl Wire for String {
    const MIN_LEN: usize = 4;
    fn put(&self, e: &mut Encoder<'_>) {
        e.put_string(self);
    }
    fn get(d: &mut Decoder<'_>) -> Result<Self> {
        d.get_string()
    }
}

/// Two big-endian u64 words, high first.
impl Wire for u128 {
    const MIN_LEN: usize = 16;
    fn put(&self, e: &mut Encoder<'_>) {
        e.put_u64((*self >> 64) as u64);
        e.put_u64(*self as u64);
    }
    fn get(d: &mut Decoder<'_>) -> Result<Self> {
        let hi = d.get_u64()?;
        let lo = d.get_u64()?;
        Ok(((hi as u128) << 64) | lo as u128)
    }
}

/// A named value: one row of a counter, gauge or rate list.
impl<T: Wire> Wire for (String, T) {
    const MIN_LEN: usize = String::MIN_LEN + T::MIN_LEN;
    fn put(&self, e: &mut Encoder<'_>) {
        Wire::put(&self.0, e);
        Wire::put(&self.1, e);
    }
    fn get(d: &mut Decoder<'_>) -> Result<Self> {
        Ok((String::get(d)?, T::get(d)?))
    }
}

/// A `u32` count, then the items — every list in every message decodes
/// through [`decode_list`], bounded by the item type's `MIN_LEN`.
impl<T: Wire> Wire for Vec<T> {
    const MIN_LEN: usize = 4;
    fn put(&self, e: &mut Encoder<'_>) {
        e.put_u32(self.len() as u32);
        for item in self {
            Wire::put(item, e);
        }
    }
    fn get(d: &mut Decoder<'_>) -> Result<Self> {
        decode_list(d, T::MIN_LEN, std::any::type_name::<T>(), T::get)
    }
}

/// Operand lists keep `netsolve-xdr`'s object marshaling (bulk arrays).
impl Wire for Vec<DataObject> {
    const MIN_LEN: usize = 4;
    fn put(&self, e: &mut Encoder<'_>) {
        encode_objects(e, self);
    }
    fn get(d: &mut Decoder<'_>) -> Result<Self> {
        decode_objects(d)
    }
}

/// The encode side alone: every [`Wire`] value, and the borrowed fields a
/// view lends out (`&str`, `&[DataObject]`), which have no decoder.
pub(crate) trait Put {
    /// Append the encoding.
    fn put(&self, e: &mut Encoder<'_>);
}

impl<T: Wire> Put for T {
    fn put(&self, e: &mut Encoder<'_>) {
        Wire::put(self, e);
    }
}

impl Put for &str {
    fn put(&self, e: &mut Encoder<'_>) {
        e.put_string(self);
    }
}

impl Put for &[DataObject] {
    fn put(&self, e: &mut Encoder<'_>) {
        encode_objects(e, self);
    }
}

/// How an owned message field is lent to its view: scalars by value,
/// text and operand lists as slices.
pub(crate) trait Lend<'a> {
    /// The field's type in the view.
    type View;
    /// The field as the view holds it.
    fn lend(&'a self) -> Self::View;
}

macro_rules! lend_by_value {
    ($($ty:ty),*) => {$(
        impl Lend<'_> for $ty {
            type View = $ty;
            fn lend(&self) -> $ty {
                *self
            }
        }
    )*};
}

lend_by_value!(u64, u128);

impl<'a> Lend<'a> for String {
    type View = &'a str;
    fn lend(&'a self) -> &'a str {
        self
    }
}

impl<'a> Lend<'a> for Vec<DataObject> {
    type View = &'a [DataObject];
    fn lend(&'a self) -> &'a [DataObject] {
        self
    }
}

/// The record table: `Name { field, … }` per struct, fields in wire
/// order. Expands to that struct's [`Wire`] impl. (Both tables expand in
/// `message.rs` and lean on its imports: `Encoder`, `Decoder`, `Result`,
/// `NetSolveError`.)
macro_rules! wire_records {
    ($($record:ident { $($field:ident),* })*) => {$(
        impl $crate::wire::Wire for $record {
            const MIN_LEN: usize = 0 $(+ $crate::wire::min_len(|r: &$record| &r.$field))*;
            const FIELDS: &'static [&'static str] = &[$(stringify!($field)),*];
            fn put(&self, e: &mut Encoder<'_>) {
                let $record { $($field),* } = self;
                $($crate::wire::Put::put($field, e);)*
            }
            fn get(d: &mut Decoder<'_>) -> Result<Self> {
                $(let $field = $crate::wire::Wire::get(d)?;)*
                Ok($record { $($field),* })
            }
        }
    )*};
}
pub(crate) use wire_records;

/// The message table: `tag Name(Record)` for a variant that wraps a record,
/// `tag Name { field, … }` for one with its own fields (`{}` when it has
/// none), `tag Name => View<'a> { field: type, … }` for one that also has
/// a borrowed view (the types are the view's). Expands to `Message`'s tag,
/// log name, payload encoder (the [`Body`](crate::message::Body) impl),
/// payload decoder and `SCHEMA`, and to each view's struct, encoder and
/// `to_message`.
macro_rules! wire_messages {
    ($($tag:literal $name:ident
        $(($record:ident))?
        $({ $($field:ident),* })?
        $(=> $view:ident<$lt:lifetime> { $($vfield:ident: $vty:ty),* })?
    )*) => {
        impl Message {
            /// Wire tag of this message variant.
            pub fn tag(&self) -> u32 {
                match self {
                    $(Message::$name { .. } => $tag,)*
                }
            }

            /// Short name for logs.
            pub fn name(&self) -> &'static str {
                match self {
                    $(Message::$name { .. } => stringify!($name),)*
                }
            }

            /// Every message as `(tag, name, [field])`, straight from the
            /// wire table: what the tag pins and the `docs/PROTOCOL.md`
            /// check iterate over.
            #[doc(hidden)]
            pub const SCHEMA: &'static [(u32, &'static str, &'static [&'static str])] = &[$((
                $tag,
                stringify!($name),
                $(<$record as $crate::wire::Wire>::FIELDS)?
                $(&[$(stringify!($field)),*])?
                $(&[$(stringify!($vfield)),*])?
            )),*];

            /// Decode one message body: the tag, then that row's fields.
            pub(crate) fn decode_body(d: &mut Decoder<'_>) -> Result<Message> {
                Ok(match d.get_u32()? {
                    $($tag => {
                        $($(let $field = $crate::wire::Wire::get(d)?;)*)?
                        $($(let $vfield = $crate::wire::Wire::get(d)?;)*)?
                        Message::$name
                            $((<$record as $crate::wire::Wire>::get(d)?))?
                            $({ $($field),* })?
                            $({ $($vfield),* })?
                    })*
                    other => {
                        return Err(NetSolveError::Protocol(format!("unknown message tag {other}")))
                    }
                })
            }
        }

        impl Body for Message {
            fn encode_body(&self, e: &mut Encoder<'_>) {
                e.put_u32(self.tag());
                match self {$(
                    Message::$name
                        $((record @ $record { .. }))?
                        $({ $($field),* })?
                        $({ $($vfield),* })?
                    => {
                        $(<$record as $crate::wire::Wire>::put(record, e);)?
                        $($($crate::wire::Put::put($field, e);)*)?
                        $(
                            let view = $view { $($vfield: $crate::wire::Lend::lend($vfield)),* };
                            $crate::wire::Put::put(&view, e);
                        )?
                    }
                )*}
            }
        }

        $($(
            #[doc = concat!(
                "[`Message::", stringify!($name), "`], borrowed: the same fields in the same ",
                "wire order, text and lists lent as slices. It encodes to the same bytes ",
                "(see [`Body`]), so a sender can frame data it does not own without copying it."
            )]
            #[derive(Debug, Clone, Copy)]
            pub struct $view<$lt> {
                $(
                    #[doc = concat!("[`Message::", stringify!($name), "`]'s `", stringify!($vfield), "`.")]
                    pub $vfield: $vty,
                )*
            }

            impl $crate::wire::Put for $view<'_> {
                fn put(&self, e: &mut Encoder<'_>) {
                    let $view { $($vfield),* } = self;
                    $($crate::wire::Put::put($vfield, e);)*
                }
            }

            impl Body for $view<'_> {
                fn encode_body(&self, e: &mut Encoder<'_>) {
                    e.put_u32($tag);
                    $crate::wire::Put::put(self, e);
                }
            }

            impl $view<'_> {
                /// The owned message this view stands for: a copy of every
                /// borrowed field.
                pub fn to_message(&self) -> Message {
                    let $view { $($vfield),* } = *self;
                    Message::$name { $($vfield: $vfield.to_owned()),* }
                }
            }
        )?)*
    };
}
pub(crate) use wire_messages;
