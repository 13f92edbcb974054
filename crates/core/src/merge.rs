//! The `Merge` procedure (Definition 4.1) and its state mappings η / η′.

use std::collections::BTreeSet;

use relmerge_obs as obs;
use relmerge_relational::algebra;
use relmerge_relational::{
    Attribute, DatabaseState, Error, NullConstraint, Relation, RelationScheme, RelationalSchema,
    Result, Tuple, Value,
};

use crate::keyrel::{self, KeyRelationSpec};

/// One merged relation-scheme's worth of bookkeeping: which attributes of
/// the merged scheme `Rm` came from which original scheme `Ri`, and which
/// of them have since been dropped by `Remove`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MergeGroup {
    /// The original relation-scheme name `Ri`.
    pub scheme: String,
    /// `Xi`: the attribute names contributed to `Xm` at merge time.
    pub original_attrs: Vec<String>,
    /// `Ki`: the original primary key, in key order.
    pub key: Vec<String>,
    /// Attributes of `Xi` removed by `Remove` (either empty or all of `Ki`).
    pub removed: Vec<String>,
    /// Whether this member was chosen as the key-relation `Rk`.
    pub is_key_relation: bool,
}

impl MergeGroup {
    /// `Xi` minus the removed attributes — the columns of `Rm` that still
    /// belong to this group.
    #[must_use]
    pub fn surviving_attrs(&self) -> Vec<&str> {
        self.original_attrs
            .iter()
            .filter(|a| !self.removed.contains(a))
            .map(String::as_str)
            .collect()
    }

    /// Whether the group's key has been removed.
    #[must_use]
    pub fn key_removed(&self) -> bool {
        !self.removed.is_empty()
    }
}

/// Options for [`Merge::plan_with_options`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MergeOptions {
    /// Explicit attribute names for a synthetic key-relation (rejected
    /// when the merge set already contains a key-relation — the names
    /// would silently go unused).
    pub synthetic_key_names: Option<Vec<String>>,
    /// **Total-participation strengthening** (an SDT-style variation of
    /// the technique, cf. §6): when the original schema also contains the
    /// *reverse* key-to-key dependency `Rk[Kk] ⊆ Ri[Ki]`, every key value
    /// has a partner in `ri`, the outer join never pads group `i`, and the
    /// null-synchronization set `NS(Xi)` can be strengthened to the
    /// declarative nulls-not-allowed constraint `∅ ⊑ Xi` (with the
    /// null-existence constraints targeting `Xi` dropped as implied).
    /// Off by default — the paper-faithful output.
    pub strengthen_total_participation: bool,
}

/// Entry point for the paper's `Merge(R̄)` procedure.
pub struct Merge;

impl Merge {
    /// Plans `Merge(R̄)` on `schema`, merging the relation-schemes named in
    /// `members` into a new relation-scheme `merged_name`.
    ///
    /// Preconditions (Definition 4.1):
    /// * at least two members, all present in the schema, pairwise distinct;
    /// * pairwise compatible primary keys;
    /// * every member attribute carries a nulls-not-allowed constraint, and
    ///   members carry no other null constraints (the definition's
    ///   simplifying assumption).
    ///
    /// The key-relation is found with Proposition 3.1; when no member
    /// qualifies, a synthetic key-relation is created with fresh attribute
    /// names `<merged_name>.K1…`.
    ///
    /// ```
    /// use relmerge_relational::{Attribute, Domain, InclusionDep,
    ///     NullConstraint, RelationScheme, RelationalSchema};
    /// use relmerge_core::Merge;
    ///
    /// let mut schema = RelationalSchema::new();
    /// schema.add_scheme(RelationScheme::new(
    ///     "EMP",
    ///     vec![Attribute::new("E.SSN", Domain::Int),
    ///          Attribute::new("E.GRADE", Domain::Int)],
    ///     &["E.SSN"],
    /// )?)?;
    /// schema.add_scheme(RelationScheme::new(
    ///     "MGR",
    ///     vec![Attribute::new("M.SSN", Domain::Int),
    ///          Attribute::new("M.NR", Domain::Int)],
    ///     &["M.SSN"],
    /// )?)?;
    /// schema.add_null_constraint(NullConstraint::nna("EMP", &["E.SSN", "E.GRADE"]))?;
    /// schema.add_null_constraint(NullConstraint::nna("MGR", &["M.SSN", "M.NR"]))?;
    /// schema.add_ind(InclusionDep::new("MGR", &["M.SSN"], "EMP", &["E.SSN"]))?;
    ///
    /// // EMP is the key-relation (every manager is an employee).
    /// let mut merged = Merge::plan(&schema, &["EMP", "MGR"], "EMP_M")?;
    /// assert_eq!(merged.km(), ["E.SSN"]);
    /// assert!(merged.schema().is_bcnf());
    /// // MGR's key copy is redundant; drop it.
    /// merged.remove_all_removable()?;
    /// assert_eq!(
    ///     merged.merged_scheme().attr_names(),
    ///     ["E.SSN", "E.GRADE", "M.NR"],
    /// );
    /// # Ok::<(), relmerge_relational::Error>(())
    /// ```
    pub fn plan(schema: &RelationalSchema, members: &[&str], merged_name: &str) -> Result<Merged> {
        Self::plan_with_options(schema, members, merged_name, &MergeOptions::default())
    }

    /// Like [`Merge::plan`] but naming the synthetic key-relation's
    /// attributes explicitly (e.g. Figure 2's `CN`). Fails if the merge set
    /// already contains a key-relation (the names would be unused) — use
    /// [`Merge::plan`] there.
    pub fn plan_with_synthetic_key(
        schema: &RelationalSchema,
        members: &[&str],
        merged_name: &str,
        key_names: &[&str],
    ) -> Result<Merged> {
        Self::plan_with_options(
            schema,
            members,
            merged_name,
            &MergeOptions {
                synthetic_key_names: Some(key_names.iter().map(|s| (*s).to_owned()).collect()),
                ..MergeOptions::default()
            },
        )
    }

    /// Like [`Merge::plan`] with explicit [`MergeOptions`].
    pub fn plan_with_options(
        schema: &RelationalSchema,
        members: &[&str],
        merged_name: &str,
        options: &MergeOptions,
    ) -> Result<Merged> {
        let synthetic_key_names: Option<Vec<&str>> = options
            .synthetic_key_names
            .as_ref()
            .map(|v| v.iter().map(String::as_str).collect());
        Self::plan_inner(
            schema,
            members,
            merged_name,
            synthetic_key_names.as_deref(),
            options.strengthen_total_participation,
        )
    }

    fn plan_inner(
        schema: &RelationalSchema,
        members: &[&str],
        merged_name: &str,
        synthetic_key_names: Option<&[&str]>,
        strengthen_total_participation: bool,
    ) -> Result<Merged> {
        merge_counters().plans.inc();
        let member_schemes = Self::validate_members(schema, members, merged_name)?;

        // --- Key-relation (Definition 4.1 case split). ---
        let key_relation = match keyrel::find_key_relation(schema, &member_schemes) {
            Some(r0) => {
                if synthetic_key_names.is_some() {
                    return Err(Error::PreconditionViolated {
                        procedure: "Merge",
                        detail: format!(
                            "merge set already contains key-relation `{}`; \
                             synthetic key names are not applicable",
                            r0.name()
                        ),
                    });
                }
                KeyRelationSpec::Member(r0.name().to_owned())
            }
            None => KeyRelationSpec::Synthetic {
                attrs: keyrel::synthesize_key_attrs(
                    schema,
                    &member_schemes,
                    merged_name,
                    synthetic_key_names,
                )?,
            },
        };
        let km: Vec<String> = key_relation.key_names(schema)?;

        // --- Step 1: Xm := Xk ∪ ⋃ Xi, Km := Kk; groups in fold order. ---
        let mut xm: Vec<Attribute> = Vec::new();
        let mut groups: Vec<MergeGroup> = Vec::new();
        if let KeyRelationSpec::Synthetic { attrs } = &key_relation {
            xm.extend(attrs.iter().cloned());
        }
        let key_rel_name = match &key_relation {
            KeyRelationSpec::Member(n) => Some(n.clone()),
            KeyRelationSpec::Synthetic { .. } => None,
        };
        // Key-relation member first (its attributes open Xm), then the rest
        // in the caller's order.
        let ordered: Vec<&RelationScheme> = member_schemes
            .iter()
            .copied()
            .filter(|s| Some(s.name()) == key_rel_name.as_deref())
            .chain(
                member_schemes
                    .iter()
                    .copied()
                    .filter(|s| Some(s.name()) != key_rel_name.as_deref()),
            )
            .collect();
        for s in &ordered {
            xm.extend(s.attrs().iter().cloned());
            groups.push(MergeGroup {
                scheme: s.name().to_owned(),
                original_attrs: s.attr_names().iter().map(|a| (*a).to_owned()).collect(),
                key: s.primary_key().iter().map(|k| (*k).to_owned()).collect(),
                removed: Vec::new(),
                is_key_relation: Some(s.name()) == key_rel_name.as_deref(),
            });
        }

        // --- Step 2 (F′): Rm's declared keys: Km primary, plus every
        // member's *alternative* candidate keys (their primary keys are
        // implied equal to Km by the total-equality constraints of step 3b
        // and stay implicit). ---
        let mut declared_keys: Vec<Vec<String>> = vec![km.clone()];
        for s in &ordered {
            for ck in s.candidate_keys().iter().skip(1) {
                declared_keys.push(ck.iter().map(|k| (*k).to_owned()).collect());
            }
        }
        let key_refs: Vec<Vec<&str>> = declared_keys
            .iter()
            .map(|k| k.iter().map(String::as_str).collect())
            .collect();
        let key_slices: Vec<&[&str]> = key_refs.iter().map(Vec::as_slice).collect();
        let merged_scheme = RelationScheme::with_candidate_keys(merged_name, xm, &key_slices)?;

        // R′: replace the members with Rm at the first member's position.
        let mut schemes: Vec<RelationScheme> = Vec::new();
        let mut inserted = false;
        for s in schema.schemes() {
            if members.contains(&s.name()) {
                if !inserted {
                    schemes.push(merged_scheme.clone());
                    inserted = true;
                }
            } else {
                schemes.push(s.clone());
            }
        }

        // --- Step 4 (I′). ---
        let member_keys: Vec<(&str, Vec<&str>)> = ordered
            .iter()
            .map(|s| (s.name(), s.primary_key()))
            .collect();
        let is_member = |n: &str| members.contains(&n);
        let mut inds = Vec::new();
        for ind in schema.inds() {
            let mut out = ind.clone();
            // (a) replace Ri with Rm on both sides.
            if is_member(&out.lhs_rel) {
                out.lhs_rel = merged_name.to_owned();
            }
            if is_member(&out.rhs_rel) {
                out.rhs_rel = merged_name.to_owned();
            }
            if out.lhs_rel == merged_name && out.rhs_rel == merged_name {
                // (b) rewrite Rm[Z] ⊆ Rm[Ki] to Rm[Z] ⊆ Rm[Km].
                let rhs_names: Vec<&str> = out.rhs_attrs.iter().map(String::as_str).collect();
                if let Some((_, ki)) = member_keys.iter().find(|(_, ki)| same_set(&rhs_names, ki)) {
                    out.rhs_attrs = reorder_to_km(&out.rhs_attrs, ki, &km);
                }
                // (c) drop Rm[Ki] ⊆ Rm[Km] for member primary keys Ki.
                let lhs_names: Vec<&str> = out.lhs_attrs.iter().map(String::as_str).collect();
                let rhs_is_km = same_set(
                    &out.rhs_attrs.iter().map(String::as_str).collect::<Vec<_>>(),
                    &km.iter().map(String::as_str).collect::<Vec<_>>(),
                );
                if rhs_is_km && member_keys.iter().any(|(_, ki)| same_set(&lhs_names, ki)) {
                    continue;
                }
            }
            if !inds.contains(&out) {
                inds.push(out);
            }
        }

        // --- Step 3 (N′). ---
        let mut nulls: Vec<NullConstraint> = schema
            .null_constraints()
            .iter()
            .filter(|c| !is_member(c.rel()))
            .cloned()
            .collect();
        // Total-participation strengthening (extension, off by default):
        // groups whose scheme is the target of the *reverse* key-to-key
        // dependency Rk[Kk] ⊆ Ri[Ki] are present in every merged tuple,
        // so their whole attribute set can be nulls-not-allowed.
        let total_groups: BTreeSet<String> = if strengthen_total_participation {
            match &key_relation {
                KeyRelationSpec::Member(ro) => {
                    let ro_scheme = schema.scheme_required(ro)?;
                    let ko: Vec<&str> = ro_scheme.primary_key();
                    groups
                        .iter()
                        .filter(|g| !g.is_key_relation)
                        .filter(|g| {
                            schema.inds().iter().any(|ind| {
                                ind.lhs_rel == *ro
                                    && ind.rhs_rel == g.scheme
                                    && same_set(
                                        &ind.lhs_attrs
                                            .iter()
                                            .map(String::as_str)
                                            .collect::<Vec<_>>(),
                                        &ko,
                                    )
                                    && same_set(
                                        &ind.rhs_attrs
                                            .iter()
                                            .map(String::as_str)
                                            .collect::<Vec<_>>(),
                                        &g.key.iter().map(String::as_str).collect::<Vec<_>>(),
                                    )
                            })
                        })
                        .map(|g| g.scheme.clone())
                        .collect()
                }
                KeyRelationSpec::Synthetic { .. } => BTreeSet::new(),
            }
        } else {
            BTreeSet::new()
        };
        // 3a: Rm : ∅ ⊑ Xk (the key-relation's whole attribute set).
        let xk: Vec<&str> = match &key_relation {
            KeyRelationSpec::Member(n) => schema.scheme_required(n)?.attr_names(),
            KeyRelationSpec::Synthetic { attrs } => attrs.iter().map(Attribute::name).collect(),
        };
        nulls.push(NullConstraint::nna(merged_name, &xk));
        // 3c: NS(Xi) for every member except Rk with |Xi| > 1 — or, with
        // the strengthening, NNA(Xi) for totally-participating groups.
        for g in &groups {
            if g.is_key_relation {
                continue;
            }
            let attrs: Vec<&str> = g.original_attrs.iter().map(String::as_str).collect();
            if total_groups.contains(&g.scheme) {
                nulls.push(NullConstraint::nna(merged_name, &attrs));
            } else if g.original_attrs.len() > 1 {
                nulls.push(NullConstraint::ns(merged_name, &attrs));
            }
        }
        // 3e: for every IND Rj[Kj] ⊆ Ri[Ki] with both members and Ki ≠ Km,
        // add Rm : Xj ⊑ Xi — unless Xi is fully NNA (strengthened), in
        // which case the constraint is implied.
        //
        // The left-hand side must be Rj's *primary key* (the paper writes
        // Rj[Z] but its justification — "the inter-relational existence
        // constraints implied by the inclusion dependencies" — only holds
        // when Z aligns the row: a tuple whose Rj-part is present has
        // Kj = Km, so the referenced Ri-group lives in the SAME tuple. For
        // a non-key Z the referenced value lives in a *different* tuple,
        // the single-tuple constraint is unsound (it rejects consistent η
        // images), and the information is instead preserved by the
        // internal inclusion dependency Rm[Z] ⊆ Rm[Km] that step 4 keeps.
        // See DESIGN.md §6 and the forest property test that caught this.
        for ind in schema.inds() {
            if is_member(&ind.lhs_rel) && is_member(&ind.rhs_rel) {
                let ri = schema.scheme_required(&ind.rhs_rel)?;
                if !ind.is_key_based(ri) {
                    continue;
                }
                let rj = schema.scheme_required(&ind.lhs_rel)?;
                if !rj.is_primary_key(&ind.lhs_attrs) {
                    continue;
                }
                if total_groups.contains(&ind.rhs_rel) {
                    continue;
                }
                let ki: Vec<&str> = ri.primary_key();
                let km_refs: Vec<&str> = km.iter().map(String::as_str).collect();
                if same_set(&ki, &km_refs) {
                    continue;
                }
                let xj: Vec<&str> = rj.attr_names();
                let xi: Vec<&str> = ri.attr_names();
                let ne = NullConstraint::ne(merged_name, &xj, &xi);
                if !nulls.contains(&ne) {
                    nulls.push(ne);
                }
            }
        }
        // 3b: total-equality Rm : Km =⊥ Ki for every member with Ki ≠ Km.
        let km_refs: Vec<&str> = km.iter().map(String::as_str).collect();
        for g in &groups {
            let ki: Vec<&str> = g.key.iter().map(String::as_str).collect();
            if !same_set(&ki, &km_refs) {
                nulls.push(NullConstraint::te(merged_name, &km_refs, &ki));
            }
        }
        // 3d: part-null over the member attribute sets if Rk is synthetic.
        if matches!(key_relation, KeyRelationSpec::Synthetic { .. }) {
            let group_attrs: Vec<Vec<&str>> = groups
                .iter()
                .map(|g| g.original_attrs.iter().map(String::as_str).collect())
                .collect();
            let group_refs: Vec<&[&str]> = group_attrs.iter().map(Vec::as_slice).collect();
            nulls.push(NullConstraint::pn(merged_name, &group_refs));
        }

        let generated_nulls = nulls.iter().filter(|c| c.rel() == merged_name).count();
        merge_counters()
            .null_constraints
            .add(generated_nulls as u64);

        let current = RelationalSchema::with_parts(schemes, inds, nulls);
        current.validate()?;
        Ok(Merged {
            original: schema.clone(),
            current,
            merged_name: merged_name.to_owned(),
            km,
            key_relation,
            groups,
        })
    }

    fn validate_members<'a>(
        schema: &'a RelationalSchema,
        members: &[&str],
        merged_name: &str,
    ) -> Result<Vec<&'a RelationScheme>> {
        if members.len() < 2 {
            return Err(Error::PreconditionViolated {
                procedure: "Merge",
                detail: "need at least two relation-schemes to merge".to_owned(),
            });
        }
        let mut seen = BTreeSet::new();
        for m in members {
            if !seen.insert(*m) {
                return Err(Error::PreconditionViolated {
                    procedure: "Merge",
                    detail: format!("relation-scheme `{m}` listed twice"),
                });
            }
        }
        if schema.scheme(merged_name).is_some() {
            return Err(Error::DuplicateScheme(merged_name.to_owned()));
        }
        let member_schemes: Vec<&RelationScheme> = members
            .iter()
            .map(|m| schema.scheme_required(m))
            .collect::<Result<_>>()?;
        // Definition 4.1's standing assumption: attribute names are
        // globally unique across the schemes being merged (Xm would
        // otherwise contain duplicate columns).
        let mut attr_seen = BTreeSet::new();
        for s in &member_schemes {
            for a in s.attrs() {
                if !attr_seen.insert(a.name()) {
                    return Err(Error::DuplicateAttribute(a.name().to_owned()));
                }
            }
        }
        // Pairwise compatible primary keys.
        for pair in member_schemes.windows(2) {
            if !pair[0].key_compatible(pair[1]) {
                return Err(Error::PreconditionViolated {
                    procedure: "Merge",
                    detail: format!(
                        "primary keys of `{}` and `{}` are not compatible",
                        pair[0].name(),
                        pair[1].name()
                    ),
                });
            }
        }
        // Every member attribute must be nulls-not-allowed, and members may
        // carry no other null constraints (Definition 4.1's assumption).
        for s in &member_schemes {
            for a in s.attrs() {
                if !schema.attr_not_null(s.name(), a.name()) {
                    return Err(Error::PreconditionViolated {
                        procedure: "Merge",
                        detail: format!(
                            "attribute `{}` of `{}` must carry a nulls-not-allowed \
                             constraint before merging",
                            a.name(),
                            s.name()
                        ),
                    });
                }
            }
            if schema
                .null_constraints()
                .iter()
                .any(|c| c.rel() == s.name() && !c.is_nna())
            {
                return Err(Error::PreconditionViolated {
                    procedure: "Merge",
                    detail: format!(
                        "`{}` carries non-NNA null constraints; Definition 4.1 \
                         assumes merge members allow no nulls",
                        s.name()
                    ),
                });
            }
        }
        Ok(member_schemes)
    }
}

/// Reorders `rhs` (a permutation of `ki`) into the corresponding `km`
/// attributes: position `p` of the original key order maps `ki[p] → km[p]`.
fn reorder_to_km(rhs: &[String], ki: &[&str], km: &[String]) -> Vec<String> {
    rhs.iter()
        .map(|a| {
            let p = ki
                .iter()
                .position(|k| k == a)
                .expect("rhs is a permutation of ki");
            km[p].clone()
        })
        .collect()
}

fn same_set(a: &[&str], b: &[&str]) -> bool {
    a.len() == b.len() && a.iter().all(|x| b.contains(x))
}

/// Process-wide counters for the merge procedure, cached so the hot path
/// never touches the registry lock.
struct MergeCounters {
    plans: std::sync::Arc<obs::Counter>,
    null_constraints: std::sync::Arc<obs::Counter>,
    removals: std::sync::Arc<obs::Counter>,
}

fn merge_counters() -> &'static MergeCounters {
    static COUNTERS: std::sync::OnceLock<MergeCounters> = std::sync::OnceLock::new();
    COUNTERS.get_or_init(|| {
        let r = obs::global();
        MergeCounters {
            plans: r.counter("core.merge.plans"),
            null_constraints: r.counter("core.merge.null_constraints"),
            removals: r.counter("core.remove.removed"),
        }
    })
}

pub(crate) fn removal_counter() -> &'static std::sync::Arc<obs::Counter> {
    &merge_counters().removals
}

/// The result of `Merge` (and any subsequent `Remove`s): the transformed
/// schema `RS′` together with the state mappings η / η′ of Definition 4.1
/// (composed with the μ / μ′ of Definition 4.3 once attributes have been
/// removed).
#[derive(Debug, Clone)]
pub struct Merged {
    pub(crate) original: RelationalSchema,
    pub(crate) current: RelationalSchema,
    pub(crate) merged_name: String,
    pub(crate) km: Vec<String>,
    pub(crate) key_relation: KeyRelationSpec,
    pub(crate) groups: Vec<MergeGroup>,
}

impl Merged {
    /// The schema `RS′` (or `RS″` after removals).
    #[must_use]
    pub fn schema(&self) -> &RelationalSchema {
        &self.current
    }

    /// The original schema `RS` the merge was planned on.
    #[must_use]
    pub fn original_schema(&self) -> &RelationalSchema {
        &self.original
    }

    /// The merged relation-scheme's name `Rm`.
    #[must_use]
    pub fn merged_name(&self) -> &str {
        &self.merged_name
    }

    /// The merged scheme `Rm(Xm)`.
    #[must_use]
    pub fn merged_scheme(&self) -> &RelationScheme {
        self.current
            .scheme(&self.merged_name)
            .expect("merged scheme is always present")
    }

    /// `Km`: the merged primary key's attribute names, in key order.
    #[must_use]
    pub fn km(&self) -> Vec<&str> {
        self.km.iter().map(String::as_str).collect()
    }

    /// How the key-relation was obtained.
    #[must_use]
    pub fn key_relation(&self) -> &KeyRelationSpec {
        &self.key_relation
    }

    /// The per-member bookkeeping groups, in η's fold order.
    #[must_use]
    pub fn groups(&self) -> &[MergeGroup] {
        &self.groups
    }

    /// Looks up the group for original scheme `name`.
    #[must_use]
    pub fn group(&self, name: &str) -> Option<&MergeGroup> {
        self.groups.iter().find(|g| g.scheme == name)
    }

    /// The names of the merged (replaced) relation-schemes `R̄`.
    #[must_use]
    pub fn member_names(&self) -> Vec<&str> {
        self.groups.iter().map(|g| g.scheme.as_str()).collect()
    }

    /// The null constraints `Merge` generated on `Rm`.
    #[must_use]
    pub fn generated_null_constraints(&self) -> Vec<&NullConstraint> {
        self.current
            .null_constraints()
            .iter()
            .filter(|c| c.rel() == self.merged_name)
            .collect()
    }

    /// The state mapping **η** (composed with μ for removed attributes):
    /// maps a database state of the original schema into one of the merged
    /// schema. Identity outside `R̄`; `r_m` is built by outer-equi-joining
    /// the key-relation with the member relations on `Km = Ki`, then
    /// projecting away removed attributes.
    pub fn apply(&self, state: &DatabaseState) -> Result<DatabaseState> {
        let mut out = DatabaseState::new();
        for s in self.current.schemes() {
            if s.name() == self.merged_name {
                continue;
            }
            out.set_relation(s.name(), state.relation_required(s.name())?.clone());
        }

        // Start from the key-relation.
        let member_names: Vec<&str> = self.member_names();
        let mut rm = match &self.key_relation {
            KeyRelationSpec::Member(n) => state.relation_required(n)?.clone(),
            KeyRelationSpec::Synthetic { attrs } => {
                keyrel::union_of_keys(&self.original, state, &member_names, attrs)?
            }
        };
        // Fold the outer-equi-joins in group order.
        let km_refs: Vec<&str> = self.km();
        for g in &self.groups {
            if g.is_key_relation {
                continue;
            }
            let ri = state.relation_required(&g.scheme)?;
            let on: Vec<(&str, &str)> = km_refs
                .iter()
                .copied()
                .zip(g.key.iter().map(String::as_str))
                .collect();
            rm = algebra::outer_equi_join(&rm, ri, &on)?;
        }
        // Project onto the current merged header (drops removed attributes
        // and fixes column order).
        let wanted: Vec<&str> = self.merged_scheme().attr_names();
        let rm = algebra::project(&rm, &wanted)?;
        out.set_relation(self.merged_name.clone(), rm);
        Ok(out)
    }

    /// The state mapping **η′** (composed with μ′ for removed attributes):
    /// maps a database state of the merged schema back into one of the
    /// original schema. Identity outside `r_m`; each member relation is
    /// reconstructed as the total projection `π↓_{Xi}(r_m)`, with removed
    /// key attributes recovered from `Km` through the total-equality
    /// correspondence.
    pub fn invert(&self, state: &DatabaseState) -> Result<DatabaseState> {
        let rm = state.relation_required(&self.merged_name)?;
        let mut out = DatabaseState::new();
        for s in self.original.schemes() {
            if self.member_names().contains(&s.name()) {
                continue;
            }
            out.set_relation(s.name(), state.relation_required(s.name())?.clone());
        }
        for g in &self.groups {
            let scheme = self.original.scheme_required(&g.scheme)?;
            let reconstructed = self.reconstruct_group(rm, g, scheme)?;
            out.set_relation(g.scheme.clone(), reconstructed);
        }
        Ok(out)
    }

    /// Reconstructs one member relation from `r_m`.
    ///
    /// Without removals this is exactly `π↓_{Xi}(r_m)`. With the group key
    /// removed, a tuple's membership is witnessed by the surviving
    /// attributes `Xi − Yi` being total (the null-synchronization set
    /// `NS(Xi)` makes `Xi` all-or-nothing), and the key values are copied
    /// from `Km` (equal by the total-equality constraint `Km =⊥ Ki`,
    /// which held of every tuple before the projection μ).
    fn reconstruct_group(
        &self,
        rm: &Relation,
        g: &MergeGroup,
        scheme: &RelationScheme,
    ) -> Result<Relation> {
        let survivors = g.surviving_attrs();
        let survivor_pos = rm.positions(&survivors)?;
        let km_refs: Vec<&str> = self.km();
        let km_pos = rm.positions(&km_refs)?;
        // For each original attribute: where to fetch its value from.
        enum Source {
            Col(usize),
            FromKm(usize),
        }
        let sources: Vec<Source> = g
            .original_attrs
            .iter()
            .map(|a| {
                if g.removed.contains(a) {
                    let p = g
                        .key
                        .iter()
                        .position(|k| k == a)
                        .expect("only key attributes are removable");
                    Ok(Source::FromKm(km_pos[p]))
                } else {
                    Ok(Source::Col(rm.position(a).ok_or_else(|| {
                        Error::UnknownAttribute {
                            attribute: a.clone(),
                            context: self.merged_name.clone(),
                        }
                    })?))
                }
            })
            .collect::<Result<_>>()?;
        let mut out = Relation::new(scheme.attrs().to_vec())?;
        for t in rm.iter() {
            if !t.is_total_at(&survivor_pos) {
                continue;
            }
            let values: Vec<Value> = sources
                .iter()
                .map(|s| match s {
                    Source::Col(i) | Source::FromKm(i) => t.get(*i).clone(),
                })
                .collect();
            out.insert(Tuple::new(values))?;
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relmerge_relational::{Domain, InclusionDep};

    fn attr(name: &str, d: Domain) -> Attribute {
        Attribute::new(name, d)
    }

    /// Figure 2's two relation-schemes, with every attribute NNA.
    fn offer_teach() -> RelationalSchema {
        let mut rs = RelationalSchema::new();
        rs.add_scheme(
            RelationScheme::new(
                "OFFER",
                vec![attr("O.CN", Domain::Int), attr("O.DN", Domain::Int)],
                &["O.CN"],
            )
            .unwrap(),
        )
        .unwrap();
        rs.add_scheme(
            RelationScheme::new(
                "TEACH",
                vec![attr("T.CN", Domain::Int), attr("T.FN", Domain::Int)],
                &["T.CN"],
            )
            .unwrap(),
        )
        .unwrap();
        rs.add_null_constraint(NullConstraint::nna("OFFER", &["O.CN", "O.DN"]))
            .unwrap();
        rs.add_null_constraint(NullConstraint::nna("TEACH", &["T.CN", "T.FN"]))
            .unwrap();
        rs
    }

    #[test]
    fn synthetic_key_merge_matches_figure_2() {
        let rs = offer_teach();
        let m =
            Merge::plan_with_synthetic_key(&rs, &["OFFER", "TEACH"], "ASSIGN", &["CN"]).unwrap();
        let scheme = m.merged_scheme();
        assert_eq!(scheme.attr_names(), ["CN", "O.CN", "O.DN", "T.CN", "T.FN"]);
        assert_eq!(scheme.primary_key(), ["CN"]);
        let cons = m.generated_null_constraints();
        // NNA on CN, NS per member, PN over both groups, TE per member.
        assert!(cons.contains(&&NullConstraint::nna("ASSIGN", &["CN"])));
        assert!(cons.contains(&&NullConstraint::ns("ASSIGN", &["O.CN", "O.DN"])));
        assert!(cons.contains(&&NullConstraint::ns("ASSIGN", &["T.CN", "T.FN"])));
        assert!(cons.contains(&&NullConstraint::pn(
            "ASSIGN",
            &[&["O.CN", "O.DN"], &["T.CN", "T.FN"]]
        )));
        assert!(cons.contains(&&NullConstraint::te("ASSIGN", &["CN"], &["O.CN"])));
        assert!(cons.contains(&&NullConstraint::te("ASSIGN", &["CN"], &["T.CN"])));
        assert_eq!(cons.len(), 6);
        assert!(m.schema().is_bcnf());
    }

    #[test]
    fn member_key_relation_when_ind_present() {
        // With TEACH[T.CN] ⊆ OFFER[O.CN], OFFER is the key-relation
        // (the paper's Figure 2 discussion).
        let mut rs = offer_teach();
        rs.add_ind(InclusionDep::new("TEACH", &["T.CN"], "OFFER", &["O.CN"]))
            .unwrap();
        let m = Merge::plan(&rs, &["OFFER", "TEACH"], "ASSIGN").unwrap();
        assert_eq!(
            m.key_relation(),
            &KeyRelationSpec::Member("OFFER".to_owned())
        );
        assert_eq!(m.km(), ["O.CN"]);
        let scheme = m.merged_scheme();
        assert_eq!(scheme.attr_names(), ["O.CN", "O.DN", "T.CN", "T.FN"]);
        let cons = m.generated_null_constraints();
        // NNA over the key-relation's whole attribute set.
        assert!(cons.contains(&&NullConstraint::nna("ASSIGN", &["O.CN", "O.DN"])));
        // No part-null constraint (key-relation is a member).
        assert!(!cons
            .iter()
            .any(|c| matches!(c, NullConstraint::PartNull { .. })));
        // NS only for TEACH.
        assert!(cons.contains(&&NullConstraint::ns("ASSIGN", &["T.CN", "T.FN"])));
        // TE only for TEACH's key.
        assert!(cons.contains(&&NullConstraint::te("ASSIGN", &["O.CN"], &["T.CN"])));
        // The internal IND disappears (step 4c).
        assert!(m.schema().inds().is_empty());
    }

    #[test]
    fn preconditions_enforced() {
        let rs = offer_teach();
        assert!(Merge::plan(&rs, &["OFFER"], "A").is_err());
        assert!(Merge::plan(&rs, &["OFFER", "OFFER"], "A").is_err());
        assert!(Merge::plan(&rs, &["OFFER", "NOPE"], "A").is_err());
        assert!(Merge::plan(&rs, &["OFFER", "TEACH"], "OFFER").is_err());

        // Missing NNA on a member attribute.
        let mut no_nna = RelationalSchema::new();
        no_nna
            .add_scheme(RelationScheme::new("A", vec![attr("A.K", Domain::Int)], &["A.K"]).unwrap())
            .unwrap();
        no_nna
            .add_scheme(RelationScheme::new("B", vec![attr("B.K", Domain::Int)], &["B.K"]).unwrap())
            .unwrap();
        no_nna
            .add_null_constraint(NullConstraint::nna("A", &["A.K"]))
            .unwrap();
        let err = Merge::plan(&no_nna, &["A", "B"], "M").unwrap_err();
        assert!(matches!(err, Error::PreconditionViolated { .. }));

        // Incompatible keys.
        let mut incompat = RelationalSchema::new();
        incompat
            .add_scheme(RelationScheme::new("A", vec![attr("A.K", Domain::Int)], &["A.K"]).unwrap())
            .unwrap();
        incompat
            .add_scheme(
                RelationScheme::new("B", vec![attr("B.K", Domain::Text)], &["B.K"]).unwrap(),
            )
            .unwrap();
        incompat
            .add_null_constraint(NullConstraint::nna("A", &["A.K"]))
            .unwrap();
        incompat
            .add_null_constraint(NullConstraint::nna("B", &["B.K"]))
            .unwrap();
        assert!(Merge::plan(&incompat, &["A", "B"], "M").is_err());
    }

    #[test]
    fn eta_round_trip_synthetic_key() {
        let rs = offer_teach();
        let m =
            Merge::plan_with_synthetic_key(&rs, &["OFFER", "TEACH"], "ASSIGN", &["CN"]).unwrap();
        let mut st = DatabaseState::empty_for(&rs).unwrap();
        st.insert("OFFER", Tuple::new([Value::Int(1), Value::Int(10)]))
            .unwrap();
        st.insert("OFFER", Tuple::new([Value::Int(3), Value::Int(30)]))
            .unwrap();
        st.insert("TEACH", Tuple::new([Value::Int(1), Value::Int(100)]))
            .unwrap();
        st.insert("TEACH", Tuple::new([Value::Int(2), Value::Int(200)]))
            .unwrap();
        let merged_state = m.apply(&st).unwrap();
        let rm = merged_state.relation("ASSIGN").unwrap();
        // 3 distinct course numbers → 3 tuples.
        assert_eq!(rm.len(), 3);
        assert!(merged_state.is_consistent(m.schema()).unwrap());
        let back = m.invert(&merged_state).unwrap();
        assert_eq!(back, st);
    }

    #[test]
    fn eta_round_trip_member_key() {
        let mut rs = offer_teach();
        rs.add_ind(InclusionDep::new("TEACH", &["T.CN"], "OFFER", &["O.CN"]))
            .unwrap();
        let m = Merge::plan(&rs, &["OFFER", "TEACH"], "ASSIGN").unwrap();
        let mut st = DatabaseState::empty_for(&rs).unwrap();
        st.insert("OFFER", Tuple::new([Value::Int(1), Value::Int(10)]))
            .unwrap();
        st.insert("OFFER", Tuple::new([Value::Int(2), Value::Int(20)]))
            .unwrap();
        st.insert("TEACH", Tuple::new([Value::Int(1), Value::Int(100)]))
            .unwrap();
        assert!(st.is_consistent(&rs).unwrap());
        let merged_state = m.apply(&st).unwrap();
        let rm = merged_state.relation("ASSIGN").unwrap();
        assert_eq!(rm.len(), 2);
        // The unmatched OFFER tuple has nulls in the TEACH part only.
        assert!(rm.contains(&Tuple::new([
            Value::Int(2),
            Value::Int(20),
            Value::Null,
            Value::Null
        ])));
        assert!(merged_state.is_consistent(m.schema()).unwrap());
        let back = m.invert(&merged_state).unwrap();
        assert_eq!(back, st);
    }

    #[test]
    fn step_3e_skips_non_key_intra_set_dependencies() {
        // Regression for a soundness bug found by the forest property
        // test: F2's *non-key* attribute references fellow member F1's
        // key. Definition 4.1 step 3(e) read literally would add
        // Rm : X_F2 ⊑ X_F1, which rejects consistent η images (the
        // referenced F1 group lives in a DIFFERENT tuple). The constraint
        // must only be generated for key-to-key dependencies; the non-key
        // reference survives as an internal inclusion dependency instead.
        let mut rs = RelationalSchema::new();
        rs.add_scheme(
            RelationScheme::new("F0", vec![attr("F0.K", Domain::Int)], &["F0.K"]).unwrap(),
        )
        .unwrap();
        rs.add_scheme(
            RelationScheme::new("F1", vec![attr("F1.K", Domain::Int)], &["F1.K"]).unwrap(),
        )
        .unwrap();
        rs.add_scheme(
            RelationScheme::new(
                "F2",
                vec![attr("F2.K", Domain::Int), attr("F2.V0", Domain::Int)],
                &["F2.K"],
            )
            .unwrap(),
        )
        .unwrap();
        rs.add_null_constraint(NullConstraint::nna("F0", &["F0.K"]))
            .unwrap();
        rs.add_null_constraint(NullConstraint::nna("F1", &["F1.K"]))
            .unwrap();
        rs.add_null_constraint(NullConstraint::nna("F2", &["F2.K", "F2.V0"]))
            .unwrap();
        rs.add_ind(InclusionDep::new("F1", &["F1.K"], "F0", &["F0.K"]))
            .unwrap();
        rs.add_ind(InclusionDep::new("F2", &["F2.K"], "F0", &["F0.K"]))
            .unwrap();
        rs.add_ind(InclusionDep::new("F2", &["F2.V0"], "F1", &["F1.K"]))
            .unwrap();
        let m = Merge::plan(&rs, &["F0", "F1", "F2"], "M").unwrap();
        // No null-existence constraint between the F2 and F1 groups.
        assert!(!m.generated_null_constraints().iter().any(|c| matches!(
            c,
            NullConstraint::NullExistence { lhs, .. } if !lhs.is_empty()
        )));
        // The non-key reference became an internal IND onto Km.
        assert!(m
            .schema()
            .inds()
            .contains(&InclusionDep::new("M", &["F2.V0"], "M", &["F0.K"])));
        // The witness state: course 5 exists in F2 (pointing at F1-key 4)
        // while F1 has no member 5 — consistent before AND after merging.
        let mut st = DatabaseState::empty_for(&rs).unwrap();
        for k in [1i64, 4, 5] {
            st.insert("F0", Tuple::new([Value::Int(k)])).unwrap();
        }
        st.insert("F1", Tuple::new([Value::Int(4)])).unwrap();
        st.insert("F2", Tuple::new([Value::Int(5), Value::Int(4)]))
            .unwrap();
        assert!(st.is_consistent(&rs).unwrap());
        let image = m.apply(&st).unwrap();
        assert!(
            image.is_consistent(m.schema()).unwrap(),
            "{:?}",
            image.violations(m.schema()).unwrap()
        );
        assert_eq!(m.invert(&image).unwrap(), st);
    }

    #[test]
    fn total_participation_strengthening() {
        // COURSE and OFFER reference each other key-to-key: every course
        // is offered (total participation). With the strengthening option,
        // the OFFER group becomes nulls-not-allowed instead of
        // null-synchronized.
        let mut rs = RelationalSchema::new();
        rs.add_scheme(
            RelationScheme::new("COURSE", vec![attr("C.NR", Domain::Int)], &["C.NR"]).unwrap(),
        )
        .unwrap();
        rs.add_scheme(
            RelationScheme::new(
                "OFFER",
                vec![attr("O.C.NR", Domain::Int), attr("O.D", Domain::Int)],
                &["O.C.NR"],
            )
            .unwrap(),
        )
        .unwrap();
        rs.add_scheme(
            RelationScheme::new(
                "TEACH",
                vec![attr("T.C.NR", Domain::Int), attr("T.F", Domain::Int)],
                &["T.C.NR"],
            )
            .unwrap(),
        )
        .unwrap();
        rs.add_null_constraint(NullConstraint::nna("COURSE", &["C.NR"]))
            .unwrap();
        rs.add_null_constraint(NullConstraint::nna("OFFER", &["O.C.NR", "O.D"]))
            .unwrap();
        rs.add_null_constraint(NullConstraint::nna("TEACH", &["T.C.NR", "T.F"]))
            .unwrap();
        rs.add_ind(InclusionDep::new("OFFER", &["O.C.NR"], "COURSE", &["C.NR"]))
            .unwrap();
        rs.add_ind(InclusionDep::new("COURSE", &["C.NR"], "OFFER", &["O.C.NR"]))
            .unwrap();
        rs.add_ind(InclusionDep::new("TEACH", &["T.C.NR"], "COURSE", &["C.NR"]))
            .unwrap();

        // Paper-faithful output: NS for both satellites.
        let plain = Merge::plan(&rs, &["COURSE", "OFFER", "TEACH"], "M").unwrap();
        assert!(plain
            .generated_null_constraints()
            .contains(&&NullConstraint::ns("M", &["O.C.NR", "O.D"])));

        // Strengthened output: NNA for OFFER, NS only for TEACH.
        let options = MergeOptions {
            strengthen_total_participation: true,
            ..MergeOptions::default()
        };
        let strengthened =
            Merge::plan_with_options(&rs, &["COURSE", "OFFER", "TEACH"], "M", &options).unwrap();
        let cons = strengthened.generated_null_constraints();
        assert!(cons.contains(&&NullConstraint::nna("M", &["O.C.NR", "O.D"])));
        assert!(!cons.contains(&&NullConstraint::ns("M", &["O.C.NR", "O.D"])));
        assert!(cons.contains(&&NullConstraint::ns("M", &["T.C.NR", "T.F"])));

        // Semantics: on states honoring the total participation, both
        // variants round-trip and both schemas accept the merged image.
        let mut st = DatabaseState::empty_for(&rs).unwrap();
        for nr in [1i64, 2] {
            st.insert("COURSE", Tuple::new([Value::Int(nr)])).unwrap();
            st.insert("OFFER", Tuple::new([Value::Int(nr), Value::Int(nr + 10)]))
                .unwrap();
        }
        st.insert("TEACH", Tuple::new([Value::Int(1), Value::Int(100)]))
            .unwrap();
        assert!(st.is_consistent(&rs).unwrap());
        for m in [&plain, &strengthened] {
            let image = m.apply(&st).unwrap();
            assert!(image.is_consistent(m.schema()).unwrap());
            assert_eq!(m.invert(&image).unwrap(), st);
        }
        // The strengthened schema *rejects* merged tuples with an absent
        // OFFER group — which the plain schema would accept even though
        // no consistent original state maps to them (the reverse
        // dependency would be violated).
        let mut bad = strengthened.apply(&st).unwrap();
        bad.relation_mut("M")
            .unwrap()
            .insert(Tuple::new([
                Value::Int(3),
                Value::Null,
                Value::Null,
                Value::Null,
                Value::Null,
            ]))
            .unwrap();
        assert!(!bad.is_consistent(strengthened.schema()).unwrap());
    }

    #[test]
    fn composite_key_merge() {
        // Two schemes with compatible 2-attribute keys (Int, Text order).
        let mut rs = RelationalSchema::new();
        rs.add_scheme(
            RelationScheme::new(
                "A",
                vec![
                    attr("A.K1", Domain::Int),
                    attr("A.K2", Domain::Text),
                    attr("A.V", Domain::Int),
                ],
                &["A.K1", "A.K2"],
            )
            .unwrap(),
        )
        .unwrap();
        rs.add_scheme(
            RelationScheme::new(
                "B",
                vec![
                    attr("B.K1", Domain::Int),
                    attr("B.K2", Domain::Text),
                    attr("B.V", Domain::Int),
                ],
                &["B.K1", "B.K2"],
            )
            .unwrap(),
        )
        .unwrap();
        rs.add_null_constraint(NullConstraint::nna("A", &["A.K1", "A.K2", "A.V"]))
            .unwrap();
        rs.add_null_constraint(NullConstraint::nna("B", &["B.K1", "B.K2", "B.V"]))
            .unwrap();
        rs.add_ind(InclusionDep::new(
            "B",
            &["B.K1", "B.K2"],
            "A",
            &["A.K1", "A.K2"],
        ))
        .unwrap();
        let m = Merge::plan(&rs, &["A", "B"], "M").unwrap();
        assert_eq!(m.km(), ["A.K1", "A.K2"]);
        // The TE constraint pairs key components positionally.
        assert!(m
            .generated_null_constraints()
            .contains(&&NullConstraint::te(
                "M",
                &["A.K1", "A.K2"],
                &["B.K1", "B.K2"]
            )));
        // Round trip with composite keys.
        let mut st = DatabaseState::empty_for(&rs).unwrap();
        st.insert(
            "A",
            Tuple::new([Value::Int(1), Value::text("x"), Value::Int(10)]),
        )
        .unwrap();
        st.insert(
            "A",
            Tuple::new([Value::Int(1), Value::text("y"), Value::Int(20)]),
        )
        .unwrap();
        st.insert(
            "B",
            Tuple::new([Value::Int(1), Value::text("x"), Value::Int(30)]),
        )
        .unwrap();
        let merged_state = m.apply(&st).unwrap();
        assert!(merged_state.is_consistent(m.schema()).unwrap());
        assert_eq!(m.invert(&merged_state).unwrap(), st);
    }

    #[test]
    fn non_key_internal_ind_becomes_self_reference() {
        // B carries a second reference into A (B.REF ⊆ A.K) beyond its
        // key-based one. After merging it must survive as a
        // self-referencing inclusion dependency Rm[B.REF] ⊆ Rm[Km]
        // (step 4(a)+(b)), while the key-to-key one disappears (4(c)).
        let mut rs = RelationalSchema::new();
        rs.add_scheme(RelationScheme::new("A", vec![attr("A.K", Domain::Int)], &["A.K"]).unwrap())
            .unwrap();
        rs.add_scheme(
            RelationScheme::new(
                "B",
                vec![attr("B.K", Domain::Int), attr("B.REF", Domain::Int)],
                &["B.K"],
            )
            .unwrap(),
        )
        .unwrap();
        rs.add_null_constraint(NullConstraint::nna("A", &["A.K"]))
            .unwrap();
        rs.add_null_constraint(NullConstraint::nna("B", &["B.K", "B.REF"]))
            .unwrap();
        rs.add_ind(InclusionDep::new("B", &["B.K"], "A", &["A.K"]))
            .unwrap();
        rs.add_ind(InclusionDep::new("B", &["B.REF"], "A", &["A.K"]))
            .unwrap();
        let m = Merge::plan(&rs, &["A", "B"], "M").unwrap();
        let inds = m.schema().inds();
        assert_eq!(inds.len(), 1);
        assert_eq!(inds[0], InclusionDep::new("M", &["B.REF"], "M", &["A.K"]));
        // The self-reference is still key-based (Km is Rm's primary key).
        assert!(m.schema().key_based_inds_only());
        // A state where every REF points at an existing key round-trips.
        let mut st = DatabaseState::empty_for(&rs).unwrap();
        st.insert("A", Tuple::new([Value::Int(1)])).unwrap();
        st.insert("A", Tuple::new([Value::Int(2)])).unwrap();
        st.insert("B", Tuple::new([Value::Int(1), Value::Int(2)]))
            .unwrap();
        let merged_state = m.apply(&st).unwrap();
        assert!(merged_state.is_consistent(m.schema()).unwrap());
        assert_eq!(m.invert(&merged_state).unwrap(), st);
        // B.REF is NOT removable: condition (4) — wait, B.REF is not a
        // group key at all; only group keys are candidates. The group key
        // B.K *is* blocked by condition (4): B.REF's self-reference does
        // not overlap B.K, so check the actual gate — condition (2): the
        // internal IND targets Rm[A.K], not Rm[B.K], so B.K is removable.
        assert_eq!(m.removable("B"), Ok(()));
    }

    #[test]
    fn merged_scheme_inherits_alternative_candidate_keys() {
        let mut rs = RelationalSchema::new();
        rs.add_scheme(
            RelationScheme::with_candidate_keys(
                "A",
                vec![attr("A.K", Domain::Int), attr("A.ALT", Domain::Int)],
                &[&["A.K"], &["A.ALT"]],
            )
            .unwrap(),
        )
        .unwrap();
        rs.add_scheme(RelationScheme::new("B", vec![attr("B.K", Domain::Int)], &["B.K"]).unwrap())
            .unwrap();
        rs.add_null_constraint(NullConstraint::nna("A", &["A.K", "A.ALT"]))
            .unwrap();
        rs.add_null_constraint(NullConstraint::nna("B", &["B.K"]))
            .unwrap();
        rs.add_ind(InclusionDep::new("B", &["B.K"], "A", &["A.K"]))
            .unwrap();
        let m = Merge::plan(&rs, &["A", "B"], "M").unwrap();
        let keys = m.merged_scheme().candidate_keys();
        assert_eq!(keys.len(), 2);
        assert_eq!(keys[0], vec!["A.K"]);
        assert_eq!(keys[1], vec!["A.ALT"]);
    }
}
