//! Offline stand-in for the published `serde` crate.
//!
//! Used only where cargo cannot resolve the published crate (a sandbox
//! with no crate registry; see `standins/offline.toml`). The
//! repository's library crates derive `Serialize`/`Deserialize` on their
//! data types, but nothing the benchmark measures serializes through
//! serde (sealed artifacts, deltas and traces are hand-rolled byte
//! formats). So this stand-in keeps the *names* — traits, derives, the
//! `ser`/`de` modules — and drops the data model: `Serializer` and
//! `Deserializer` have no methods beyond what the repository's
//! hand-written impls call, and every impl the derives or this crate
//! provide returns an error saying serialization is unavailable instead
//! of producing wrong bytes.

pub use serde_derive::{Deserialize, Serialize};

const UNAVAILABLE: &str =
    "serde is an offline stand-in in this build: serialization is unavailable";

/// The error derived `Serialize` impls return.
#[doc(hidden)]
pub fn unavailable_ser<E: ser::Error>() -> E {
    E::custom(UNAVAILABLE)
}

/// The error derived `Deserialize` impls return.
#[doc(hidden)]
pub fn unavailable_de<E: de::Error>() -> E {
    E::custom(UNAVAILABLE)
}

/// Serialization half.
pub mod ser {
    use std::fmt::Display;

    /// Errors a serializer can raise.
    pub trait Error: Sized + std::error::Error {
        /// An error carrying a custom message.
        fn custom<T: Display>(msg: T) -> Self;
    }

    /// A data format that can serialize values.
    pub trait Serializer: Sized {
        /// Output of a successful serialization.
        type Ok;
        /// Error of a failed one.
        type Error: Error;

        /// Serialize a string. No format exists here, so this fails.
        fn serialize_str(self, _v: &str) -> Result<Self::Ok, Self::Error> {
            Err(super::unavailable_ser())
        }
    }

    /// A value that can be serialized.
    pub trait Serialize {
        /// Serialize `self` into `serializer`.
        fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error>;
    }
}

/// Deserialization half.
pub mod de {
    use std::fmt::Display;

    /// Errors a deserializer can raise.
    pub trait Error: Sized + std::error::Error {
        /// An error carrying a custom message.
        fn custom<T: Display>(msg: T) -> Self;
    }

    /// A data format that can deserialize values.
    pub trait Deserializer<'de>: Sized {
        /// Error of a failed deserialization.
        type Error: Error;
    }

    /// A value that can be deserialized.
    pub trait Deserialize<'de>: Sized {
        /// Deserialize a value from `deserializer`.
        fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error>;
    }

    /// A value deserializable without borrowing from the input.
    pub trait DeserializeOwned: for<'de> Deserialize<'de> {}
    impl<T: for<'de> Deserialize<'de>> DeserializeOwned for T {}
}

pub use de::{Deserialize, Deserializer};
pub use ser::{Serialize, Serializer};

// The standard-library types the repository's hand-written impls
// serialize or deserialize through. Element types are unbounded
// because no impl here ever reaches an element.
macro_rules! unavailable_impls {
    ($( [$($gen:tt)*] $ty:ty ),* $(,)?) => {$(
        impl<$($gen)*> Serialize for $ty {
            fn serialize<S: Serializer>(&self, _: S) -> Result<S::Ok, S::Error> {
                Err(unavailable_ser())
            }
        }
    )*};
}

unavailable_impls! {
    [] str, [T] Vec<T>,
}

macro_rules! unavailable_de_impls {
    ($( [$($gen:tt)*] $ty:ty ),* $(,)?) => {$(
        impl<'de, $($gen)*> Deserialize<'de> for $ty {
            fn deserialize<D: Deserializer<'de>>(_: D) -> Result<Self, D::Error> {
                Err(unavailable_de())
            }
        }
    )*};
}

unavailable_de_impls! {
    [T] Vec<T>, ['a] std::borrow::Cow<'a, str>,
}
