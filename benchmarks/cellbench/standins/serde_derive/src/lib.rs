//! Offline stand-in for `serde_derive` (see the `serde` stand-in for
//! why). The derives emit trait impls whose methods report that
//! serialization is unavailable; they never look at fields, so field
//! types need no impls of their own. Written against `proc_macro` alone,
//! since `syn` and `quote` are not available offline either.

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// `impl serde::Serialize for T` that always returns an error.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(item: TokenStream) -> TokenStream {
    let uses = with_modules(item.clone(), "serialize::<__S>");
    let Header { name, params, args } = Header::parse(item);
    format!(
        "impl<{params}> ::serde::Serialize for {name}<{args}> {{\
             fn serialize<__S: ::serde::Serializer>(&self, _: __S) \
                 -> ::core::result::Result<__S::Ok, __S::Error> {{\
                 {uses}\
                 ::core::result::Result::Err(::serde::unavailable_ser())\
             }}\
         }}"
    )
    .parse()
    .expect("generated Serialize impl parses")
}

/// `impl serde::Deserialize for T` that always returns an error.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(item: TokenStream) -> TokenStream {
    let uses = with_modules(item.clone(), "deserialize::<__D>");
    let Header { name, params, args } = Header::parse(item);
    let sep = if params.is_empty() { "" } else { ", " };
    format!(
        "impl<'de{sep}{params}> ::serde::Deserialize<'de> for {name}<{args}> {{\
             fn deserialize<__D: ::serde::Deserializer<'de>>(_: __D) \
                 -> ::core::result::Result<Self, __D::Error> {{\
                 {uses}\
                 ::core::result::Result::Err(::serde::unavailable_de())\
             }}\
         }}"
    )
    .parse()
    .expect("generated Deserialize impl parses")
}

/// One `let _ = <module>::<function>;` per `#[serde(with = "<module>")]`
/// in the item, so a with-module's functions are name- and
/// signature-checked (and not reported as dead code) as they are under
/// the real derive.
fn with_modules(item: TokenStream, function: &str) -> String {
    let mut uses = String::new();
    for tt in item {
        let TokenTree::Group(g) = tt else { continue };
        let inner: Vec<TokenTree> = g.stream().into_iter().collect();
        if let [TokenTree::Ident(i), TokenTree::Punct(eq), TokenTree::Literal(path)] =
            inner.as_slice()
        {
            if i.to_string() == "with" && eq.as_char() == '=' {
                let module = path.to_string();
                uses.push_str(&format!(
                    "let _ = {}::{function};",
                    module.trim_matches('"')
                ));
            }
        }
        uses.push_str(&with_modules(g.stream(), function));
    }
    uses
}

/// The name and generics of the item a derive is attached to.
struct Header {
    name: String,
    /// Generic parameters as declared, defaults removed: `'a, T: Ord, const N: usize`.
    params: String,
    /// The same parameters as arguments: `'a, T, N`.
    args: String,
}

impl Header {
    fn parse(item: TokenStream) -> Header {
        let mut tokens = item.into_iter().peekable();
        // Skip attributes, visibility and qualifiers up to the item keyword.
        for tt in tokens.by_ref() {
            if matches!(&tt, TokenTree::Ident(i) if ["struct", "enum", "union"].contains(&i.to_string().as_str()))
            {
                break;
            }
        }
        let name = match tokens.next() {
            Some(TokenTree::Ident(i)) => i.to_string(),
            other => panic!("serde stand-in derive: expected a type name, found {other:?}"),
        };
        let mut generics: Vec<TokenTree> = Vec::new();
        if matches!(tokens.peek(), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
            tokens.next();
            let mut depth = 1usize;
            for tt in tokens.by_ref() {
                if let TokenTree::Punct(p) = &tt {
                    match p.as_char() {
                        '<' => depth += 1,
                        '>' => depth -= 1,
                        _ => {}
                    }
                }
                if depth == 0 {
                    break;
                }
                generics.push(tt);
            }
        }
        let (mut params, mut args) = (Vec::new(), Vec::new());
        for param in split_top_level_commas(generics) {
            let (decl, arg) = param_parts(&param);
            params.push(decl);
            args.push(arg);
        }
        Header {
            name,
            params: params.join(", "),
            args: args.join(", "),
        }
    }
}

fn split_top_level_commas(tokens: Vec<TokenTree>) -> Vec<Vec<TokenTree>> {
    let mut parts = vec![Vec::new()];
    let mut depth = 0usize;
    for tt in tokens {
        if let TokenTree::Punct(p) = &tt {
            match p.as_char() {
                '<' => depth += 1,
                '>' => depth = depth.saturating_sub(1),
                ',' if depth == 0 => {
                    parts.push(Vec::new());
                    continue;
                }
                _ => {}
            }
        }
        parts.last_mut().expect("parts is never empty").push(tt);
    }
    parts.retain(|p| !p.is_empty());
    parts
}

/// One generic parameter as (declaration without default, argument).
fn param_parts(param: &[TokenTree]) -> (String, String) {
    let mut decl: Vec<String> = Vec::new();
    let mut depth = 0usize;
    for tt in param {
        if let TokenTree::Punct(p) = tt {
            match p.as_char() {
                '<' => depth += 1,
                '>' => depth = depth.saturating_sub(1),
                '=' if depth == 0 => break,
                _ => {}
            }
        }
        decl.push(match tt {
            // A lifetime is a `'` punct joined to an ident: keep them adjacent.
            TokenTree::Punct(p) if p.as_char() == '\'' => "'".to_owned(),
            TokenTree::Group(g) if g.delimiter() == Delimiter::None => g.stream().to_string(),
            other => format!("{other} "),
        });
    }
    let arg = match param {
        [TokenTree::Punct(p), TokenTree::Ident(i), ..] if p.as_char() == '\'' => format!("'{i}"),
        [TokenTree::Ident(k), TokenTree::Ident(i), ..] if k.to_string() == "const" => i.to_string(),
        [TokenTree::Ident(i), ..] => i.to_string(),
        other => panic!("serde stand-in derive: unsupported generic parameter {other:?}"),
    };
    (decl.concat(), arg)
}
