//! Six-level event names.
//!
//! "We imposed a hierarchical six-level naming scheme for all events
//! (comprised of client, page, section, component, element, action)" —
//! Table 1. Components are lowercase (`To combat the dreaded camel_Snake,
//! we imposed consistent, lowercased naming`) and may be empty when a level
//! does not apply (a page without sections leaves `section` empty).

use std::fmt;
use std::sync::Arc;

/// Number of levels in the naming scheme.
pub const COMPONENTS: usize = 6;

/// Human names of the six levels, in order.
pub const COMPONENT_NAMES: [&str; COMPONENTS] = [
    "client",
    "page",
    "section",
    "component",
    "element",
    "action",
];

/// Why a name failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventNameError {
    /// The name did not have exactly six `:`-separated components.
    WrongArity(usize),
    /// A component contained a character outside `[a-z0-9_]`.
    BadComponent {
        /// Level index 0–5.
        level: usize,
        /// The offending component text.
        component: String,
    },
    /// The action (last component) is empty — every event must have one.
    EmptyAction,
}

impl fmt::Display for EventNameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EventNameError::WrongArity(n) => {
                write!(f, "event name must have {COMPONENTS} components, found {n}")
            }
            EventNameError::BadComponent { level, component } => write!(
                f,
                "component {:?} at level {} ({}) must be lowercase [a-z0-9_]",
                component, level, COMPONENT_NAMES[*level]
            ),
            EventNameError::EmptyAction => write!(f, "the action component must be non-empty"),
        }
    }
}

impl std::error::Error for EventNameError {}

/// A validated six-level event name.
///
/// Stored as a single shared string with the component boundaries implied
/// by `:` separators; components are accessed by slicing. Event names are
/// small and compared frequently (dictionary lookups, roll-ups), so a
/// single allocation beats six — and a clone shares that allocation, so
/// every event drawn from a name universe holds its name's one text.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventName(Arc<str>);

fn component_ok(s: &str) -> bool {
    s.bytes()
        .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_')
}

/// [`BYTE_CLASS`] of `:`.
const SEPARATOR: u8 = 1;
/// [`BYTE_CLASS`] of a byte no name holds.
const OTHER: u8 = 2;

/// The class of every byte in a name: 0 for `[a-z0-9_]`, [`SEPARATOR`],
/// or [`OTHER`].
static BYTE_CLASS: [u8; 256] = {
    let mut table = [OTHER; 256];
    let mut b = 0;
    while b < 256 {
        let byte = b as u8;
        if byte.is_ascii_lowercase() || byte.is_ascii_digit() || byte == b'_' {
            table[b] = 0;
        }
        b += 1;
    }
    table[b':' as usize] = SEPARATOR;
    table
};

/// A name hashes, compares and orders as its string, so maps keyed by names
/// can be probed with a borrowed, already validated `&str`.
impl std::borrow::Borrow<str> for EventName {
    fn borrow(&self) -> &str {
        &self.0
    }
}

impl EventName {
    /// Parses and validates `client:page:section:component:element:action`.
    pub fn parse(s: &str) -> Result<EventName, EventNameError> {
        let parts: Vec<&str> = s.split(':').collect();
        if parts.len() != COMPONENTS {
            return Err(EventNameError::WrongArity(parts.len()));
        }
        for (level, part) in parts.iter().enumerate() {
            if !component_ok(part) {
                return Err(EventNameError::BadComponent {
                    level,
                    component: part.to_string(),
                });
            }
        }
        if parts[COMPONENTS - 1].is_empty() {
            return Err(EventNameError::EmptyAction);
        }
        Ok(EventName(Arc::from(s)))
    }

    /// The name `s`, which [`is_valid`](Self::is_valid) already passed.
    pub(crate) fn from_valid(s: &str) -> EventName {
        debug_assert!(EventName::is_valid(s), "{s:?} was not validated");
        EventName(Arc::from(s))
    }

    /// Builds a name from its six components.
    pub fn from_components(parts: [&str; COMPONENTS]) -> Result<EventName, EventNameError> {
        EventName::parse(&parts.join(":"))
    }

    /// True when `s` would parse as a valid name, without allocating: one
    /// pass over its bytes, each looked up in a byte-class table, counting
    /// separators. Every decoder of a name validates it here.
    pub fn is_valid(s: &str) -> bool {
        let mut classes = 0u8;
        let mut separators = 0usize;
        for &b in s.as_bytes() {
            let class = BYTE_CLASS[usize::from(b)];
            classes |= class;
            separators += usize::from(class & SEPARATOR);
        }
        classes & OTHER == 0 && separators == COMPONENTS - 1 && !s.ends_with(':')
    }

    /// The full name string.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// Iterates the six components in order.
    pub fn components(&self) -> impl Iterator<Item = &str> {
        self.0.split(':')
    }

    /// Returns component `level` (0 = client … 5 = action).
    pub fn component(&self, level: usize) -> &str {
        self.components()
            .nth(level)
            .expect("validated names have six components")
    }

    /// The client (level 0): `web`, `iphone`, `android`, …
    pub fn client(&self) -> &str {
        self.component(0)
    }

    /// The page (level 1).
    pub fn page(&self) -> &str {
        self.component(1)
    }

    /// The section (level 2).
    pub fn section(&self) -> &str {
        self.component(2)
    }

    /// The component (level 3).
    pub fn ui_component(&self) -> &str {
        self.component(3)
    }

    /// The element (level 4).
    pub fn element(&self) -> &str {
        self.component(4)
    }

    /// The action (level 5): `impression`, `click`, `hover`, …
    pub fn action(&self) -> &str {
        self.component(5)
    }

    /// The reverse mapping the paper highlights: "given only the event name,
    /// we can easily figure out based on the DOM where that event was
    /// triggered". Renders the view-hierarchy path, outermost first,
    /// skipping empty levels.
    pub fn view_path(&self) -> Vec<(&'static str, &str)> {
        COMPONENT_NAMES
            .iter()
            .zip(self.components())
            .filter(|(_, c)| !c.is_empty())
            .map(|(n, c)| (*n, c))
            .collect()
    }

    /// A roll-up of this name: keep the first `keep` levels and the action,
    /// wildcard the rest. These are the five automatic aggregation schemas
    /// of §3.2, `keep` = 1..=5 (5 = the full name).
    pub fn rollup(&self, keep: usize) -> String {
        assert!((1..=5).contains(&keep), "keep must be 1..=5");
        let parts: Vec<&str> = self.components().collect();
        let mut out: Vec<&str> = Vec::with_capacity(COMPONENTS);
        out.extend(&parts[..keep]);
        out.extend(std::iter::repeat_n("*", COMPONENTS - 1 - keep));
        out.push(parts[COMPONENTS - 1]);
        out.join(":")
    }
}

impl fmt::Display for EventName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::str::FromStr for EventName {
    type Err = EventNameError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        EventName::parse(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const PAPER_EXAMPLE: &str = "web:home:mentions:stream:avatar:profile_click";

    #[test]
    fn parses_the_papers_example() {
        let n = EventName::parse(PAPER_EXAMPLE).unwrap();
        assert_eq!(n.client(), "web");
        assert_eq!(n.page(), "home");
        assert_eq!(n.section(), "mentions");
        assert_eq!(n.ui_component(), "stream");
        assert_eq!(n.element(), "avatar");
        assert_eq!(n.action(), "profile_click");
        assert_eq!(n.to_string(), PAPER_EXAMPLE);
    }

    #[test]
    fn empty_middle_components_are_allowed() {
        let n = EventName::parse("iphone:home:::tweet:impression").unwrap();
        assert_eq!(n.section(), "");
        assert_eq!(n.ui_component(), "");
    }

    #[test]
    fn arity_is_enforced() {
        assert_eq!(
            EventName::parse("web:home:click"),
            Err(EventNameError::WrongArity(3))
        );
        assert_eq!(
            EventName::parse("a:b:c:d:e:f:g"),
            Err(EventNameError::WrongArity(7))
        );
    }

    #[test]
    fn camel_snake_is_rejected() {
        // "the dreaded camel_Snake"
        let err = EventName::parse("web:home:mentions:stream:avatar:profile_Click").unwrap_err();
        assert!(matches!(err, EventNameError::BadComponent { level: 5, .. }));
        assert!(EventName::parse("Web:home:a:b:c:click").is_err());
        assert!(EventName::parse("web:ho me:a:b:c:click").is_err());
    }

    #[test]
    fn action_must_be_present() {
        assert_eq!(
            EventName::parse("web:home:mentions:stream:avatar:"),
            Err(EventNameError::EmptyAction)
        );
    }

    #[test]
    fn view_path_reverse_mapping() {
        let n = EventName::parse("web:home::stream:avatar:click").unwrap();
        assert_eq!(
            n.view_path(),
            vec![
                ("client", "web"),
                ("page", "home"),
                ("component", "stream"),
                ("element", "avatar"),
                ("action", "click"),
            ]
        );
    }

    #[test]
    fn rollups_match_the_five_schemas() {
        let n = EventName::parse(PAPER_EXAMPLE).unwrap();
        assert_eq!(n.rollup(5), "web:home:mentions:stream:avatar:profile_click");
        assert_eq!(n.rollup(4), "web:home:mentions:stream:*:profile_click");
        assert_eq!(n.rollup(3), "web:home:mentions:*:*:profile_click");
        assert_eq!(n.rollup(2), "web:home:*:*:*:profile_click");
        assert_eq!(n.rollup(1), "web:*:*:*:*:profile_click");
    }

    #[test]
    fn from_components_round_trips() {
        let n = EventName::from_components(["web", "home", "", "", "tweet", "click"]).unwrap();
        assert_eq!(n.as_str(), "web:home:::tweet:click");
    }

    /// Any text: names of every arity over the name alphabet and its near
    /// misses, and printable text including multi-byte characters.
    fn arb_text() -> impl Strategy<Value = String> {
        prop_oneof![
            prop::collection::vec("[a-z0-9_]{0,4}", 0..9).prop_map(|parts| parts.join(":")),
            prop::collection::vec("[a-z0-9_]{0,3}", 6..7).prop_map(|parts| parts.join(":")),
            "[a-z_:]{0,24}",
            "[a-zA-Z0-9_: .-]{0,24}",
            "\\PC{0,24}",
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        #[test]
        fn is_valid_agrees_with_parse(s in arb_text()) {
            prop_assert_eq!(EventName::is_valid(&s), EventName::parse(&s).is_ok(), "on {:?}", s);
        }
    }

    #[test]
    fn is_valid_agrees_with_parse_on_the_edges() {
        for s in [
            PAPER_EXAMPLE,
            "iphone:home:::tweet:impression",
            "web:home:click",
            "a:b:c:d:e:f:g",
            "web:home:mentions:stream:avatar:profile_Click",
            "web:home:mentions:stream:avatar:",
            "",
            ":::::click",
            "::::::",
            "web:ho me:a:b:c:click",
            "web:home:a:b:c:clické",
        ] {
            assert_eq!(
                EventName::is_valid(s),
                EventName::parse(s).is_ok(),
                "disagreement on {s:?}"
            );
        }
    }

    #[test]
    fn ordering_is_lexicographic() {
        let a = EventName::parse("android:a:b:c:d:click").unwrap();
        let b = EventName::parse("web:a:b:c:d:click").unwrap();
        assert!(a < b);
    }
}
