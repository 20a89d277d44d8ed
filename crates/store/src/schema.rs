//! Schemas for the two entity tables (reviewers and items).
//!
//! Per the data model (Section 3.1), each entity table has a set of
//! objective attributes `I_A` / `U_A`; a value may be atomic or a set
//! (multi-valued), like a restaurant's cuisines.

/// Which entity table an attribute or group refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Entity {
    /// The reviewer (user) table `U`.
    Reviewer,
    /// The item table `I`.
    Item,
}

impl Entity {
    /// The other entity.
    pub fn other(self) -> Self {
        match self {
            Entity::Reviewer => Entity::Item,
            Entity::Item => Entity::Reviewer,
        }
    }
}

impl std::fmt::Display for Entity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Entity::Reviewer => f.write_str("reviewer"),
            Entity::Item => f.write_str("item"),
        }
    }
}

/// Index of an attribute within its entity's schema.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AttrId(pub u16);

impl AttrId {
    /// The id as a usable index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Definition of one objective attribute.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttributeDef {
    /// Human-readable name (`"city"`, `"cuisine"`, …).
    pub name: String,
    /// Whether a row may carry a *set* of values for this attribute.
    pub multi_valued: bool,
}

/// The ordered attribute list of one entity table.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Schema {
    attrs: Vec<AttributeDef>,
}

impl Schema {
    /// Creates an empty schema.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an attribute and returns its id.
    ///
    /// # Panics
    /// Panics if an attribute with the same name already exists.
    pub fn add(&mut self, name: impl Into<String>, multi_valued: bool) -> AttrId {
        let name = name.into();
        assert!(
            self.attr_by_name(&name).is_none(),
            "duplicate attribute name: {name}"
        );
        let id = AttrId(u16::try_from(self.attrs.len()).expect("schema overflow"));
        self.attrs.push(AttributeDef { name, multi_valued });
        id
    }

    /// Number of attributes.
    pub fn len(&self) -> usize {
        self.attrs.len()
    }

    /// Whether the schema has no attributes.
    pub fn is_empty(&self) -> bool {
        self.attrs.is_empty()
    }

    /// Attribute definition by id.
    ///
    /// # Panics
    /// Panics on out-of-range ids.
    pub fn attr(&self, id: AttrId) -> &AttributeDef {
        &self.attrs[id.index()]
    }

    /// Finds an attribute id by name.
    pub fn attr_by_name(&self, name: &str) -> Option<AttrId> {
        self.attrs
            .iter()
            .position(|a| a.name == name)
            .map(|i| AttrId(i as u16))
    }

    /// Iterates `(id, def)` pairs in declaration order.
    pub fn iter(&self) -> impl Iterator<Item = (AttrId, &AttributeDef)> {
        self.attrs
            .iter()
            .enumerate()
            .map(|(i, d)| (AttrId(i as u16), d))
    }

    /// All attribute ids.
    pub fn attr_ids(&self) -> impl Iterator<Item = AttrId> + '_ {
        (0..self.attrs.len()).map(|i| AttrId(i as u16))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_lookup() {
        let mut s = Schema::new();
        let city = s.add("city", false);
        let cuisine = s.add("cuisine", true);
        assert_eq!(s.len(), 2);
        assert_eq!(s.attr(city).name, "city");
        assert!(!s.attr(city).multi_valued);
        assert!(s.attr(cuisine).multi_valued);
        assert_eq!(s.attr_by_name("cuisine"), Some(cuisine));
        assert_eq!(s.attr_by_name("nope"), None);
    }

    #[test]
    #[should_panic(expected = "duplicate attribute")]
    fn duplicate_name_panics() {
        let mut s = Schema::new();
        s.add("city", false);
        s.add("city", false);
    }

    #[test]
    fn iter_in_order() {
        let mut s = Schema::new();
        s.add("a", false);
        s.add("b", true);
        let names: Vec<_> = s.iter().map(|(_, d)| d.name.clone()).collect();
        assert_eq!(names, vec!["a", "b"]);
        assert_eq!(s.attr_ids().count(), 2);
    }

    #[test]
    fn entity_other() {
        assert_eq!(Entity::Reviewer.other(), Entity::Item);
        assert_eq!(Entity::Item.other(), Entity::Reviewer);
        assert_eq!(Entity::Reviewer.to_string(), "reviewer");
    }
}
