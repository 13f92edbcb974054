//! The `Remove` procedure: removability conditions (Definition 4.2) and
//! redundant-attribute removal (Definition 4.3) with its μ / μ′ mappings.

use std::collections::HashSet;

use relmerge_relational::{
    Error, InclusionDep, NullConstraint, RelationScheme, RelationalSchema, Result,
};

use crate::merge::Merged;

/// Why a candidate attribute set is not removable (the four conditions of
/// Definition 4.2, plus the structural prerequisites).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NotRemovable {
    /// The named group does not exist in this merge.
    NoSuchGroup(String),
    /// The group is the key-relation: its key *is* `Km` (`Yi ≠ Km` fails).
    IsKeyRelation,
    /// The group's key was already removed.
    AlreadyRemoved,
    /// Condition (1): removing `Yi` would leave no attribute of `Xi`
    /// (`|Xi − Yi| ≥ 1` fails), destroying the membership witness μ′ needs.
    NothingLeft,
    /// Condition (2): an external inclusion dependency targets `Rm[Yi]`.
    ExternalReference(String),
    /// Condition (3): `Rm[Yi]` is a foreign key to an external scheme, but
    /// some total-equality-related attribute set is not.
    ForeignKeyNotShared(String),
    /// Condition (4): `Yi` overlaps a foreign key of `Rm` other than
    /// itself.
    OverlapsForeignKey(String),
}

impl std::fmt::Display for NotRemovable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NotRemovable::NoSuchGroup(g) => write!(f, "no merged group named `{g}`"),
            NotRemovable::IsKeyRelation => {
                f.write_str("the key-relation's key is Km and cannot be removed")
            }
            NotRemovable::AlreadyRemoved => f.write_str("group key already removed"),
            NotRemovable::NothingLeft => {
                f.write_str("condition (1): removal would leave the group empty")
            }
            NotRemovable::ExternalReference(ind) => {
                write!(
                    f,
                    "condition (2): external IND targets the attributes: {ind}"
                )
            }
            NotRemovable::ForeignKeyNotShared(detail) => {
                write!(f, "condition (3): {detail}")
            }
            NotRemovable::OverlapsForeignKey(ind) => {
                write!(f, "condition (4): overlapping foreign key: {ind}")
            }
        }
    }
}

fn same_set(a: &[String], b: &[String]) -> bool {
    a.len() == b.len() && a.iter().all(|x| b.contains(x))
}

impl Merged {
    /// Checks Definition 4.2: whether the (former) primary key `Ki` of the
    /// merged group `group` is removable in `Rm`. Returns `Ok(())` when
    /// removable; otherwise the first failing condition.
    ///
    /// The total-equality constraints `Merge` generates all have the form
    /// `Km =⊥ Ki`, so the removable candidates are exactly the member keys
    /// other than `Km` — which is why this API is keyed by group.
    pub fn removable(&self, group: &str) -> std::result::Result<(), NotRemovable> {
        let g = self
            .group(group)
            .ok_or_else(|| NotRemovable::NoSuchGroup(group.to_owned()))?;
        if g.is_key_relation {
            return Err(NotRemovable::IsKeyRelation);
        }
        if g.key_removed() {
            return Err(NotRemovable::AlreadyRemoved);
        }
        let yi = &g.key;
        // Synthetic key-relations keep Km disjoint from member attributes,
        // but guard anyway: Yi must differ from Km.
        if same_set(yi, &self.km.clone()) {
            return Err(NotRemovable::IsKeyRelation);
        }
        // Condition (1): |Xi − Yi| ≥ 1.
        if g.original_attrs.len() <= yi.len() {
            return Err(NotRemovable::NothingLeft);
        }
        let rm = self.merged_name();
        let inds = self.schema().inds();
        // Condition (2): no Rj[Z] ⊆ Rm[Yi] with Rj ≠ Rm.
        if let Some(ind) = inds
            .iter()
            .find(|ind| ind.rhs_rel == rm && ind.lhs_rel != rm && same_set(&ind.rhs_attrs, yi))
        {
            return Err(NotRemovable::ExternalReference(ind.to_string()));
        }
        // Condition (3): if Rm[Yi] ⊆ Rj[Kj] (Rj ≠ Rm) exists, every
        // total-equality attribute set W of Rm must also satisfy
        // Rm[W] ⊆ Rj[Kj] ∈ I′.
        let te_sets: Vec<Vec<String>> = self
            .schema()
            .null_constraints()
            .iter()
            .filter(|c| c.rel() == rm)
            .filter_map(|c| match c {
                NullConstraint::TotalEquality { lhs, rhs, .. } => Some([lhs.clone(), rhs.clone()]),
                _ => None,
            })
            .flatten()
            .collect();
        for ind in inds
            .iter()
            .filter(|i| i.lhs_rel == rm && i.rhs_rel != rm && same_set(&i.lhs_attrs, yi))
        {
            for w in &te_sets {
                let shared = inds.iter().any(|other| {
                    other.lhs_rel == rm
                        && other.rhs_rel == ind.rhs_rel
                        && same_set(&other.lhs_attrs, w)
                        && other.rhs_attrs == ind.rhs_attrs
                });
                if !shared {
                    return Err(NotRemovable::ForeignKeyNotShared(format!(
                        "`{}` references `{}` but total-equality set ({}) lacks \
                         a matching inclusion dependency",
                        ind,
                        ind.rhs_rel,
                        w.join(",")
                    )));
                }
            }
        }
        // Condition (4): any foreign key of Rm overlapping Yi equals Yi.
        // (Extended to internal inclusion dependencies as a conservative
        // strengthening; Merge never generates an internal IND with LHS Yi.)
        if let Some(ind) = inds.iter().find(|ind| {
            ind.lhs_rel == rm
                && ind.lhs_attrs.iter().any(|a| yi.contains(a))
                && !same_set(&ind.lhs_attrs, yi)
        }) {
            return Err(NotRemovable::OverlapsForeignKey(ind.to_string()));
        }
        Ok(())
    }

    /// Applies `Remove(Yi)` (Definition 4.3) for the key of `group`,
    /// transforming `RS′` into `RS″` in place. Fails if the key is not
    /// removable.
    pub fn remove(&mut self, group: &str) -> Result<()> {
        self.removable(group)
            .map_err(|e| Error::PreconditionViolated {
                procedure: "Remove",
                detail: e.to_string(),
            })?;
        crate::merge::removal_counter().inc();
        let g = self
            .groups
            .iter()
            .find(|g| g.scheme == group)
            .expect("checked by removable");
        let yi: Vec<String> = g.key.clone();
        let yi_set: HashSet<&str> = yi.iter().map(String::as_str).collect();
        let rm = self.merged_name.clone();

        // Step 1 (R″): drop the Yi attributes from Xm.
        let old_scheme = self.merged_scheme().clone();
        let new_attrs: Vec<_> = old_scheme
            .attrs()
            .iter()
            .filter(|a| !yi_set.contains(a.name()))
            .cloned()
            .collect();
        // Step 2 (F″): any declared candidate key mentioning a Yi attribute
        // is rewritten through the Km =⊥ Yi correspondence.
        let rewritten_keys: Vec<Vec<String>> = old_scheme
            .candidate_keys()
            .iter()
            .map(|ck| {
                ck.iter()
                    .map(|a| match yi.iter().position(|y| y == a) {
                        Some(p) => self.km[p].clone(),
                        None => (*a).to_owned(),
                    })
                    .collect()
            })
            .collect();
        let mut dedup_keys: Vec<Vec<String>> = Vec::new();
        for k in rewritten_keys {
            if !dedup_keys.iter().any(|existing| same_set(existing, &k)) {
                dedup_keys.push(k);
            }
        }
        let key_refs: Vec<Vec<&str>> = dedup_keys
            .iter()
            .map(|k| k.iter().map(String::as_str).collect())
            .collect();
        let key_slices: Vec<&[&str]> = key_refs.iter().map(Vec::as_slice).collect();
        let new_scheme = RelationScheme::with_candidate_keys(&rm, new_attrs, &key_slices)?;
        let schemes: Vec<RelationScheme> = self
            .current
            .schemes()
            .iter()
            .map(|s| {
                if s.name() == rm {
                    new_scheme.clone()
                } else {
                    s.clone()
                }
            })
            .collect();

        // Step 3 (I″): rewrite Rm[Yi] ⊆ Rj[Kj] to Rm[Km] ⊆ Rj[Kj],
        // preserving the positional correspondence Yi[p] ↔ Km[p].
        let mut inds: Vec<InclusionDep> = Vec::new();
        for ind in self.current.inds() {
            let mut out = ind.clone();
            if out.lhs_rel == rm && same_set(&out.lhs_attrs, &yi) {
                out.lhs_attrs = out
                    .lhs_attrs
                    .iter()
                    .map(|a| {
                        let p = yi.iter().position(|y| y == a).expect("same_set checked");
                        self.km[p].clone()
                    })
                    .collect();
            }
            if !inds.contains(&out) {
                inds.push(out);
            }
        }

        // Step 4 (N″): project Yi out of part-null / null-existence /
        // null-synchronization constraints (4a) and drop the total-equality
        // constraint Km =⊥ Yi (4b); trivialized constraints disappear.
        let nulls: Vec<NullConstraint> = self
            .current
            .null_constraints()
            .iter()
            .filter_map(|c| {
                if c.rel() == rm {
                    c.remove_attrs(&yi_set)
                } else {
                    Some(c.clone())
                }
            })
            .collect();

        let next = RelationalSchema::with_parts(schemes, inds, nulls);
        next.validate()?;
        self.current = next;
        self.groups
            .iter_mut()
            .find(|g| g.scheme == group)
            .expect("checked by removable")
            .removed = yi;
        Ok(())
    }

    /// Removes every removable group key, iterating to a fixed point
    /// (removability can change as inclusion dependencies are rewritten).
    /// Returns the groups whose keys were removed, in removal order.
    pub fn remove_all_removable(&mut self) -> Result<Vec<String>> {
        let mut removed = Vec::new();
        loop {
            let candidate = self
                .groups
                .iter()
                .map(|g| g.scheme.clone())
                .find(|g| self.removable(g).is_ok());
            match candidate {
                Some(g) => {
                    self.remove(&g)?;
                    removed.push(g);
                }
                None => return Ok(removed),
            }
        }
    }

    /// The names of groups whose key is currently removable (Definition
    /// 4.2), without mutating anything.
    #[must_use]
    pub fn removable_groups(&self) -> Vec<&str> {
        self.groups
            .iter()
            .filter(|g| self.removable(&g.scheme).is_ok())
            .map(|g| g.scheme.as_str())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::merge::Merge;
    use relmerge_relational::{Attribute, DatabaseState, Domain, Tuple, Value};

    fn attr(name: &str) -> Attribute {
        Attribute::new(name, Domain::Int)
    }

    /// A compact version of the Figure 3 schema restricted to the COURSE /
    /// OFFER / TEACH / ASSIST chain (integer domains throughout).
    fn university() -> RelationalSchema {
        let mut rs = RelationalSchema::new();
        rs.add_scheme(RelationScheme::new("COURSE", vec![attr("C.NR")], &["C.NR"]).unwrap())
            .unwrap();
        rs.add_scheme(
            RelationScheme::new("OFFER", vec![attr("O.C.NR"), attr("O.D.NAME")], &["O.C.NR"])
                .unwrap(),
        )
        .unwrap();
        rs.add_scheme(
            RelationScheme::new("TEACH", vec![attr("T.C.NR"), attr("T.F.SSN")], &["T.C.NR"])
                .unwrap(),
        )
        .unwrap();
        rs.add_scheme(
            RelationScheme::new("ASSIST", vec![attr("A.C.NR"), attr("A.S.SSN")], &["A.C.NR"])
                .unwrap(),
        )
        .unwrap();
        for (rel, attrs) in [
            ("COURSE", vec!["C.NR"]),
            ("OFFER", vec!["O.C.NR", "O.D.NAME"]),
            ("TEACH", vec!["T.C.NR", "T.F.SSN"]),
            ("ASSIST", vec!["A.C.NR", "A.S.SSN"]),
        ] {
            rs.add_null_constraint(NullConstraint::nna(rel, &attrs))
                .unwrap();
        }
        rs.add_ind(InclusionDep::new("OFFER", &["O.C.NR"], "COURSE", &["C.NR"]))
            .unwrap();
        rs.add_ind(InclusionDep::new(
            "TEACH",
            &["T.C.NR"],
            "OFFER",
            &["O.C.NR"],
        ))
        .unwrap();
        rs.add_ind(InclusionDep::new(
            "ASSIST",
            &["A.C.NR"],
            "OFFER",
            &["O.C.NR"],
        ))
        .unwrap();
        rs
    }

    #[test]
    fn figure_4_o_c_nr_not_removable() {
        // Merge {COURSE, OFFER, TEACH}: ASSIST[A.C.NR] ⊆ COURSE'[O.C.NR]
        // survives, so O.C.NR is not removable (condition 2) — the paper's
        // Figure 4/5 contrast.
        let rs = university();
        let m = Merge::plan(&rs, &["COURSE", "OFFER", "TEACH"], "COURSE_P").unwrap();
        assert_eq!(
            m.removable("OFFER"),
            Err(NotRemovable::ExternalReference(
                "ASSIST [A.C.NR] <= COURSE_P [O.C.NR]".to_owned()
            ))
        );
        // TEACH's key is removable.
        assert_eq!(m.removable("TEACH"), Ok(()));
        // COURSE is the key-relation.
        assert_eq!(m.removable("COURSE"), Err(NotRemovable::IsKeyRelation));
    }

    #[test]
    fn figure_5_and_6_all_keys_removable() {
        let rs = university();
        let mut m = Merge::plan(&rs, &["COURSE", "OFFER", "TEACH", "ASSIST"], "COURSE_PP").unwrap();
        for g in ["OFFER", "TEACH", "ASSIST"] {
            assert_eq!(m.removable(g), Ok(()), "{g} should be removable");
        }
        let removed = m.remove_all_removable().unwrap();
        assert_eq!(removed.len(), 3);
        // Figure 6's final scheme.
        assert_eq!(
            m.merged_scheme().attr_names(),
            ["C.NR", "O.D.NAME", "T.F.SSN", "A.S.SSN"]
        );
        // Figure 6's null constraints: ∅ ⊑ C.NR, T.F.SSN ⊑ O.D.NAME,
        // A.S.SSN ⊑ O.D.NAME.
        let cons = m.generated_null_constraints();
        assert_eq!(cons.len(), 3);
        assert!(cons.contains(&&NullConstraint::nna("COURSE_PP", &["C.NR"])));
        assert!(cons.contains(&&NullConstraint::ne(
            "COURSE_PP",
            &["T.F.SSN"],
            &["O.D.NAME"]
        )));
        assert!(cons.contains(&&NullConstraint::ne(
            "COURSE_PP",
            &["A.S.SSN"],
            &["O.D.NAME"]
        )));
    }

    #[test]
    fn remove_preserves_round_trip() {
        let rs = university();
        let mut m = Merge::plan(&rs, &["COURSE", "OFFER", "TEACH", "ASSIST"], "COURSE_PP").unwrap();
        let mut st = DatabaseState::empty_for(&rs).unwrap();
        for nr in [1, 2, 3] {
            st.insert("COURSE", Tuple::new([Value::Int(nr)])).unwrap();
        }
        st.insert("OFFER", Tuple::new([Value::Int(1), Value::Int(77)]))
            .unwrap();
        st.insert("OFFER", Tuple::new([Value::Int(2), Value::Int(88)]))
            .unwrap();
        st.insert("TEACH", Tuple::new([Value::Int(1), Value::Int(500)]))
            .unwrap();
        st.insert("ASSIST", Tuple::new([Value::Int(2), Value::Int(600)]))
            .unwrap();
        assert!(st.is_consistent(&rs).unwrap());

        // Round trip before removal…
        let merged_state = m.apply(&st).unwrap();
        assert!(merged_state.is_consistent(m.schema()).unwrap());
        assert_eq!(m.invert(&merged_state).unwrap(), st);

        // …and after removing every redundant key.
        m.remove_all_removable().unwrap();
        let merged_state = m.apply(&st).unwrap();
        assert!(merged_state.is_consistent(m.schema()).unwrap());
        let rm = merged_state.relation("COURSE_PP").unwrap();
        assert_eq!(rm.arity(), 4);
        assert_eq!(m.invert(&merged_state).unwrap(), st);
    }

    #[test]
    fn removal_shrinks_relation_size() {
        let rs = university();
        let mut m = Merge::plan(&rs, &["COURSE", "OFFER", "TEACH", "ASSIST"], "COURSE_PP").unwrap();
        let mut st = DatabaseState::empty_for(&rs).unwrap();
        for nr in 0..50 {
            st.insert("COURSE", Tuple::new([Value::Int(nr)])).unwrap();
            st.insert("OFFER", Tuple::new([Value::Int(nr), Value::Int(nr + 1000)]))
                .unwrap();
        }
        let before = m
            .apply(&st)
            .unwrap()
            .relation("COURSE_PP")
            .unwrap()
            .value_count();
        m.remove_all_removable().unwrap();
        let after = m
            .apply(&st)
            .unwrap()
            .relation("COURSE_PP")
            .unwrap()
            .value_count();
        assert!(after < before, "{after} should be < {before}");
    }

    #[test]
    fn nothing_left_condition() {
        // Merging two single-attribute schemes: the non-key-relation's key
        // is its whole attribute set, so condition (1) fails.
        let mut rs = RelationalSchema::new();
        rs.add_scheme(RelationScheme::new("A", vec![attr("A.K")], &["A.K"]).unwrap())
            .unwrap();
        rs.add_scheme(RelationScheme::new("B", vec![attr("B.K")], &["B.K"]).unwrap())
            .unwrap();
        rs.add_null_constraint(NullConstraint::nna("A", &["A.K"]))
            .unwrap();
        rs.add_null_constraint(NullConstraint::nna("B", &["B.K"]))
            .unwrap();
        rs.add_ind(InclusionDep::new("B", &["B.K"], "A", &["A.K"]))
            .unwrap();
        let m = Merge::plan(&rs, &["A", "B"], "M").unwrap();
        assert_eq!(m.removable("B"), Err(NotRemovable::NothingLeft));
    }

    #[test]
    fn condition_3_foreign_key_sharing() {
        // B's key is a foreign key to an external scheme EXT; A (the
        // key-relation) does not reference EXT, so condition (3) fails.
        let mut rs = RelationalSchema::new();
        rs.add_scheme(RelationScheme::new("EXT", vec![attr("E.K")], &["E.K"]).unwrap())
            .unwrap();
        rs.add_scheme(RelationScheme::new("A", vec![attr("A.K"), attr("A.V")], &["A.K"]).unwrap())
            .unwrap();
        rs.add_scheme(RelationScheme::new("B", vec![attr("B.K"), attr("B.V")], &["B.K"]).unwrap())
            .unwrap();
        rs.add_null_constraint(NullConstraint::nna("A", &["A.K", "A.V"]))
            .unwrap();
        rs.add_null_constraint(NullConstraint::nna("B", &["B.K", "B.V"]))
            .unwrap();
        rs.add_null_constraint(NullConstraint::nna("EXT", &["E.K"]))
            .unwrap();
        rs.add_ind(InclusionDep::new("B", &["B.K"], "A", &["A.K"]))
            .unwrap();
        rs.add_ind(InclusionDep::new("B", &["B.K"], "EXT", &["E.K"]))
            .unwrap();
        let m = Merge::plan(&rs, &["A", "B"], "M").unwrap();
        assert!(matches!(
            m.removable("B"),
            Err(NotRemovable::ForeignKeyNotShared(_))
        ));
        // Adding A[A.K] ⊆ EXT[E.K] (so that Km is also a foreign key to
        // EXT) makes B.K removable.
        let mut rs2 = rs.clone();
        rs2.add_ind(InclusionDep::new("A", &["A.K"], "EXT", &["E.K"]))
            .unwrap();
        let mut m2 = Merge::plan(&rs2, &["A", "B"], "M").unwrap();
        assert_eq!(m2.removable("B"), Ok(()));
        m2.remove("B").unwrap();
        // The foreign key was rewritten onto Km.
        assert!(m2.schema().inds().iter().any(|i| i.lhs_rel == "M"
            && i.lhs_attrs == vec!["A.K".to_owned()]
            && i.rhs_rel == "EXT"));
    }

    #[test]
    fn removability_unlocked_by_earlier_removal() {
        // Condition (3) quantifies over the *current* total-equality sets:
        // B's key is a foreign key to EXT, and A (key-relation) references
        // EXT too — but C's key participates in a total-equality constraint
        // without referencing EXT, blocking B. Removing C's key first drops
        // that constraint, unblocking B — the fixpoint loop must find this.
        let mut rs = RelationalSchema::new();
        rs.add_scheme(RelationScheme::new("EXT", vec![attr("E.K")], &["E.K"]).unwrap())
            .unwrap();
        rs.add_scheme(RelationScheme::new("A", vec![attr("A.K"), attr("A.V")], &["A.K"]).unwrap())
            .unwrap();
        rs.add_scheme(RelationScheme::new("B", vec![attr("B.K"), attr("B.V")], &["B.K"]).unwrap())
            .unwrap();
        rs.add_scheme(RelationScheme::new("C", vec![attr("C.K"), attr("C.V")], &["C.K"]).unwrap())
            .unwrap();
        for (rel, attrs) in [
            ("EXT", vec!["E.K"]),
            ("A", vec!["A.K", "A.V"]),
            ("B", vec!["B.K", "B.V"]),
            ("C", vec!["C.K", "C.V"]),
        ] {
            rs.add_null_constraint(NullConstraint::nna(rel, &attrs))
                .unwrap();
        }
        rs.add_ind(InclusionDep::new("B", &["B.K"], "A", &["A.K"]))
            .unwrap();
        rs.add_ind(InclusionDep::new("C", &["C.K"], "A", &["A.K"]))
            .unwrap();
        rs.add_ind(InclusionDep::new("B", &["B.K"], "EXT", &["E.K"]))
            .unwrap();
        rs.add_ind(InclusionDep::new("A", &["A.K"], "EXT", &["E.K"]))
            .unwrap();
        let mut m = Merge::plan(&rs, &["A", "B", "C"], "M").unwrap();
        // B is blocked by condition (3): the TE set {C.K} has no inclusion
        // dependency into EXT.
        assert!(matches!(
            m.removable("B"),
            Err(NotRemovable::ForeignKeyNotShared(_))
        ));
        // C itself is removable; after it goes, B unblocks.
        assert_eq!(m.removable("C"), Ok(()));
        let removed = m.remove_all_removable().unwrap();
        assert_eq!(removed.len(), 2);
        assert!(m.group("B").unwrap().key_removed());
        assert!(m.group("C").unwrap().key_removed());
        // And the rewritten FK landed on Km.
        assert!(m.schema().inds().iter().any(|i| i.lhs_rel == "M"
            && i.lhs_attrs == vec!["A.K".to_owned()]
            && i.rhs_rel == "EXT"));
    }

    #[test]
    fn double_remove_rejected() {
        let rs = university();
        let mut m = Merge::plan(&rs, &["COURSE", "OFFER", "TEACH", "ASSIST"], "COURSE_PP").unwrap();
        m.remove("TEACH").unwrap();
        assert_eq!(m.removable("TEACH"), Err(NotRemovable::AlreadyRemoved));
        assert!(m.remove("TEACH").is_err());
    }
}
