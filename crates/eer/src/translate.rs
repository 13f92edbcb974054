//! EER → relational translation in the style of Markowitz–Shoshani \[11\]:
//! one relation-scheme per object-set, key-based inclusion dependencies for
//! the existence dependencies implied by object connections, and
//! nulls-not-allowed constraints for the null-value restrictions.
//!
//! The result is a BCNF schema of the exact form the merging technique
//! operates on: `(R, F ∪ I ∪ N)` — the paper's Figure 3 is the translation
//! of its Figure 7.

use std::collections::{BTreeMap, HashSet};

use relmerge_obs as obs;
use relmerge_relational::{
    Attribute, Error, InclusionDep, NullConstraint, RelationScheme, RelationalSchema, Result,
};

use crate::model::{Card, EerSchema, EntitySet, RelationshipSet};

/// Translates a validated EER schema into a relational schema.
///
/// Attribute naming: an object-set's own attribute `A` becomes
/// `<abbrev>.A`; a copied identifier attribute of a referenced object-set
/// defaults to `<abbrev>.<referenced name with the referenced abbreviation
/// stripped>` (so `FACULTY` copying `PERSON`'s `P.SSN` yields `F.SSN`),
/// with a participant-level `rename` override for the figures' ad-hoc
/// qualifications (`T.F.SSN`). Name collisions within a scheme are
/// disambiguated by re-inserting the referenced abbreviation.
///
/// ```
/// use relmerge_eer::model::{Card, EerAttribute, EerSchema, EntitySet,
///     Participant, RelationshipSet};
/// use relmerge_eer::translate::translate;
/// use relmerge_relational::Domain;
///
/// let mut eer = EerSchema::new();
/// eer.add_entity(EntitySet::new(
///     "EMPLOYEE",
///     vec![EerAttribute::required("SSN", Domain::Int)],
///     &["SSN"],
/// ));
/// eer.add_entity(EntitySet::new(
///     "PROJECT",
///     vec![EerAttribute::required("NR", Domain::Int)],
///     &["NR"],
/// ).with_abbrev("PR"));
/// eer.add_relationship(RelationshipSet::new(
///     "WORKS",
///     vec![
///         Participant::new("EMPLOYEE", Card::Many),
///         Participant::new("PROJECT", Card::One),
///     ],
/// ).with_attrs(vec![EerAttribute::optional("DATE", Domain::Date)]));
///
/// let schema = translate(&eer).unwrap();
/// // One BCNF relation-scheme per object-set, keyed per cardinality.
/// assert_eq!(schema.schemes().len(), 3);
/// assert_eq!(schema.scheme("WORKS").unwrap().primary_key(), ["W.SSN"]);
/// assert!(schema.is_bcnf() && schema.key_based_inds_only());
/// ```
pub fn translate(eer: &EerSchema) -> Result<RelationalSchema> {
    obs::global().counter("eer.translate.count").inc();
    eer.validate()?;
    let mut schema = RelationalSchema::new();
    // scheme name -> (primary key names, abbreviation) for already-built
    // object-sets; drives copied-attribute naming and IND generation.
    let mut built: BTreeMap<String, (Vec<String>, String)> = BTreeMap::new();
    let mut pending_entities: Vec<&EntitySet> = eer.entities.iter().collect();
    let mut pending_rels: Vec<&RelationshipSet> = eer.relationships.iter().collect();

    // Worklist: build an object-set once everything it references is built.
    loop {
        let ready_entities: Vec<&EntitySet> = pending_entities
            .iter()
            .copied()
            .filter(|e| entity_ready(eer, e, &built))
            .collect();
        pending_entities.retain(|e| !entity_ready(eer, e, &built));
        for e in &ready_entities {
            build_entity(eer, e, &mut schema, &mut built)?;
        }
        let ready_rels: Vec<&RelationshipSet> = pending_rels
            .iter()
            .copied()
            .filter(|r| r.participants.iter().all(|p| built.contains_key(&p.object)))
            .collect();
        pending_rels.retain(|r| !r.participants.iter().all(|p| built.contains_key(&p.object)));
        for r in &ready_rels {
            build_relationship(r, &mut schema, &mut built)?;
        }
        if pending_entities.is_empty() && pending_rels.is_empty() {
            break;
        }
        if ready_entities.is_empty() && ready_rels.is_empty() {
            let stuck: Vec<&str> = pending_entities
                .iter()
                .map(|e| e.name.as_str())
                .chain(pending_rels.iter().map(|r| r.name.as_str()))
                .collect();
            return Err(Error::MalformedConstraint {
                detail: format!(
                    "cyclic object-set dependencies; cannot order: {}",
                    stuck.join(", ")
                ),
            });
        }
    }
    schema.validate()?;
    Ok(schema)
}

fn entity_ready(
    eer: &EerSchema,
    e: &EntitySet,
    built: &BTreeMap<String, (Vec<String>, String)>,
) -> bool {
    eer.parents_of(&e.name)
        .iter()
        .all(|p| built.contains_key(*p))
        && e.weak_owner
            .as_deref()
            .is_none_or(|o| built.contains_key(o))
}

fn strip(name: &str, abbrev: &str) -> String {
    name.strip_prefix(&format!("{abbrev}."))
        .unwrap_or(name)
        .to_owned()
}

/// Default copied-attribute names with collision disambiguation.
fn copied_names(
    own_abbrev: &str,
    ref_abbrev: &str,
    ref_key: &[String],
    taken: &HashSet<String>,
) -> Vec<String> {
    ref_key
        .iter()
        .map(|k| {
            let plain = format!("{own_abbrev}.{}", strip(k, ref_abbrev));
            if taken.contains(&plain) {
                format!("{own_abbrev}.{ref_abbrev}.{}", strip(k, ref_abbrev))
            } else {
                plain
            }
        })
        .collect()
}

fn build_entity(
    eer: &EerSchema,
    e: &EntitySet,
    schema: &mut RelationalSchema,
    built: &mut BTreeMap<String, (Vec<String>, String)>,
) -> Result<()> {
    let mut attrs: Vec<Attribute> = Vec::new();
    let mut key: Vec<String> = Vec::new();
    let mut nna: Vec<String> = Vec::new();
    let mut inds: Vec<InclusionDep> = Vec::new();
    let mut taken: HashSet<String> = HashSet::new();

    let parents = eer.parents_of(&e.name);
    if let Some(first_parent) = parents.first() {
        // Specialization: the key is copied from the (first) parent.
        let (pkey, pabbrev) = built[*first_parent].clone();
        let names = copied_names(&e.abbrev, &pabbrev, &pkey, &taken);
        let parent_scheme = schema.scheme_required(first_parent)?;
        for (n, pk) in names.iter().zip(&pkey) {
            let domain = parent_scheme
                .attr(pk)
                .expect("parent key attrs exist")
                .domain();
            attrs.push(Attribute::new(n.clone(), domain));
            taken.insert(n.clone());
            key.push(n.clone());
            nna.push(n.clone());
        }
        for parent in &parents {
            let (pkey, _) = built[*parent].clone();
            let lhs: Vec<&str> = names.iter().map(String::as_str).collect();
            let rhs: Vec<&str> = pkey.iter().map(String::as_str).collect();
            inds.push(InclusionDep::new(&e.name, &lhs, *parent, &rhs));
        }
    } else if let Some(owner) = e.weak_owner.as_deref() {
        // Weak entity: owner key copied, full key = owner key + partial id.
        let (okey, oabbrev) = built[owner].clone();
        let names = copied_names(&e.abbrev, &oabbrev, &okey, &taken);
        let owner_scheme = schema.scheme_required(owner)?;
        for (n, ok) in names.iter().zip(&okey) {
            let domain = owner_scheme
                .attr(ok)
                .expect("owner key attrs exist")
                .domain();
            attrs.push(Attribute::new(n.clone(), domain));
            taken.insert(n.clone());
            key.push(n.clone());
            nna.push(n.clone());
        }
        let lhs: Vec<&str> = names.iter().map(String::as_str).collect();
        let rhs: Vec<&str> = okey.iter().map(String::as_str).collect();
        inds.push(InclusionDep::new(&e.name, &lhs, owner, &rhs));
    }

    for a in &e.attrs {
        let name = format!("{}.{}", e.abbrev, a.name);
        attrs.push(Attribute::new(name.clone(), a.domain));
        taken.insert(name.clone());
        if e.identifier.contains(&a.name) {
            key.push(name.clone());
        }
        if a.required || e.identifier.contains(&a.name) {
            nna.push(name);
        }
    }

    finish_scheme(&e.name, attrs, key, nna, inds, schema)?;
    built.insert(e.name.clone(), (key_of(schema, &e.name), e.abbrev.clone()));
    Ok(())
}

fn build_relationship(
    r: &RelationshipSet,
    schema: &mut RelationalSchema,
    built: &mut BTreeMap<String, (Vec<String>, String)>,
) -> Result<()> {
    let mut attrs: Vec<Attribute> = Vec::new();
    let mut key: Vec<String> = Vec::new();
    let mut nna: Vec<String> = Vec::new();
    let mut inds: Vec<InclusionDep> = Vec::new();
    let mut taken: HashSet<String> = HashSet::new();
    let any_many = r.participants.iter().any(|p| p.card == Card::Many);

    for (idx, p) in r.participants.iter().enumerate() {
        let (pkey, pabbrev) = built[&p.object].clone();
        let names = match &p.rename {
            Some(names) => {
                if names.len() != pkey.len() {
                    return Err(Error::MalformedConstraint {
                        detail: format!(
                            "participant `{}` of `{}` renames {} attributes but its \
                             identifier has {}",
                            p.object,
                            r.name,
                            names.len(),
                            pkey.len()
                        ),
                    });
                }
                names.clone()
            }
            None => copied_names(&r.abbrev, &pabbrev, &pkey, &taken),
        };
        let p_scheme = schema.scheme_required(&p.object)?;
        for (n, pk) in names.iter().zip(&pkey) {
            let domain = p_scheme
                .attr(pk)
                .expect("participant key attrs exist")
                .domain();
            attrs.push(Attribute::new(n.clone(), domain));
            taken.insert(n.clone());
            nna.push(n.clone());
        }
        // Key: identifiers of the Many participants; for one-to-one
        // relationships, the first participant's identifier.
        if p.card == Card::Many || (!any_many && idx == 0) {
            key.extend(names.iter().cloned());
        }
        let lhs: Vec<&str> = names.iter().map(String::as_str).collect();
        let rhs: Vec<&str> = pkey.iter().map(String::as_str).collect();
        inds.push(InclusionDep::new(&r.name, &lhs, &p.object, &rhs));
    }

    for a in &r.attrs {
        let name = format!("{}.{}", r.abbrev, a.name);
        attrs.push(Attribute::new(name.clone(), a.domain));
        if a.required {
            nna.push(name);
        }
    }

    finish_scheme(&r.name, attrs, key, nna, inds, schema)?;
    built.insert(r.name.clone(), (key_of(schema, &r.name), r.abbrev.clone()));
    Ok(())
}

fn finish_scheme(
    name: &str,
    attrs: Vec<Attribute>,
    key: Vec<String>,
    nna: Vec<String>,
    inds: Vec<InclusionDep>,
    schema: &mut RelationalSchema,
) -> Result<()> {
    let key_refs: Vec<&str> = key.iter().map(String::as_str).collect();
    schema.add_scheme(RelationScheme::new(name, attrs, &key_refs)?)?;
    for ind in inds {
        schema.add_ind(ind)?;
    }
    if !nna.is_empty() {
        let refs: Vec<&str> = nna.iter().map(String::as_str).collect();
        schema.add_null_constraint(NullConstraint::nna(name, &refs))?;
    }
    Ok(())
}

fn key_of(schema: &RelationalSchema, name: &str) -> Vec<String> {
    schema
        .scheme(name)
        .expect("just added")
        .primary_key()
        .iter()
        .map(|s| (*s).to_owned())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{EerAttribute, Participant};
    use relmerge_relational::Domain;

    fn simple() -> EerSchema {
        let mut eer = EerSchema::new();
        eer.add_entity(EntitySet::new(
            "PERSON",
            vec![EerAttribute::required("SSN", Domain::Int)],
            &["SSN"],
        ));
        eer.add_entity(
            EntitySet::new(
                "PROJECT",
                vec![EerAttribute::required("NR", Domain::Int)],
                &["NR"],
            )
            .with_abbrev("PR"),
        );
        eer
    }

    #[test]
    fn entity_translation_prefixes_attrs() {
        let rs = translate(&simple()).unwrap();
        let person = rs.scheme("PERSON").unwrap();
        assert_eq!(person.attr_names(), ["P.SSN"]);
        assert_eq!(person.primary_key(), ["P.SSN"]);
        assert!(rs.attr_not_null("PERSON", "P.SSN"));
        assert!(rs.is_bcnf());
    }

    #[test]
    fn isa_child_strips_parent_prefix() {
        let mut eer = simple();
        eer.add_entity(EntitySet::new("FACULTY", vec![], &[]).with_abbrev("F"));
        eer.add_isa("FACULTY", "PERSON");
        let rs = translate(&eer).unwrap();
        let fac = rs.scheme("FACULTY").unwrap();
        assert_eq!(fac.attr_names(), ["F.SSN"]);
        assert_eq!(fac.primary_key(), ["F.SSN"]);
        assert_eq!(
            rs.inds(),
            &[InclusionDep::new(
                "FACULTY",
                &["F.SSN"],
                "PERSON",
                &["P.SSN"]
            )]
        );
        assert!(rs.attr_not_null("FACULTY", "F.SSN"));
    }

    #[test]
    fn many_to_one_relationship_keyed_by_many_side() {
        let mut eer = simple();
        eer.add_relationship(
            RelationshipSet::new(
                "WORKS",
                vec![
                    Participant::new("PERSON", Card::Many),
                    Participant::new("PROJECT", Card::One),
                ],
            )
            .with_abbrev("W")
            .with_attrs(vec![EerAttribute::required("DATE", Domain::Date)]),
        );
        let rs = translate(&eer).unwrap();
        let works = rs.scheme("WORKS").unwrap();
        assert_eq!(works.attr_names(), ["W.SSN", "W.NR", "W.DATE"]);
        assert_eq!(works.primary_key(), ["W.SSN"]);
        assert!(rs.inds().contains(&InclusionDep::new(
            "WORKS",
            &["W.SSN"],
            "PERSON",
            &["P.SSN"]
        )));
        assert!(rs.inds().contains(&InclusionDep::new(
            "WORKS",
            &["W.NR"],
            "PROJECT",
            &["PR.NR"]
        )));
        // All copied keys and the required DATE are NNA.
        for a in ["W.SSN", "W.NR", "W.DATE"] {
            assert!(rs.attr_not_null("WORKS", a), "{a}");
        }
    }

    #[test]
    fn optional_relationship_attr_is_nullable() {
        let mut eer = simple();
        eer.add_relationship(
            RelationshipSet::new(
                "WORKS",
                vec![
                    Participant::new("PERSON", Card::Many),
                    Participant::new("PROJECT", Card::One),
                ],
            )
            .with_abbrev("W")
            .with_attrs(vec![EerAttribute::optional("DATE", Domain::Date)]),
        );
        let rs = translate(&eer).unwrap();
        assert!(!rs.attr_not_null("WORKS", "W.DATE"));
    }

    #[test]
    fn many_to_many_keyed_by_both_sides() {
        let mut eer = simple();
        eer.add_relationship(RelationshipSet::new(
            "ASSIGNED",
            vec![
                Participant::new("PERSON", Card::Many),
                Participant::new("PROJECT", Card::Many),
            ],
        ));
        let rs = translate(&eer).unwrap();
        let r = rs.scheme("ASSIGNED").unwrap();
        assert_eq!(r.primary_key(), ["A.SSN", "A.NR"]);
    }

    #[test]
    fn one_to_one_keyed_by_first_participant() {
        let mut eer = simple();
        eer.add_relationship(RelationshipSet::new(
            "LEADS",
            vec![
                Participant::new("PERSON", Card::One),
                Participant::new("PROJECT", Card::One),
            ],
        ));
        let rs = translate(&eer).unwrap();
        assert_eq!(rs.scheme("LEADS").unwrap().primary_key(), ["L.SSN"]);
    }

    #[test]
    fn relationship_on_relationship_uses_its_key() {
        // Aggregation: TEACH relates FACULTY(1) to the relationship OFFER(M)
        // — the Figure 7 shape.
        let mut eer = EerSchema::new();
        eer.add_entity(EntitySet::new(
            "COURSE",
            vec![EerAttribute::required("NR", Domain::Int)],
            &["NR"],
        ));
        eer.add_entity(EntitySet::new(
            "DEPT",
            vec![EerAttribute::required("NAME", Domain::Text)],
            &["NAME"],
        ));
        eer.add_relationship(
            RelationshipSet::new(
                "OFFER",
                vec![
                    Participant::new("COURSE", Card::Many).renamed(&["O.C.NR"]),
                    Participant::new("DEPT", Card::One).renamed(&["O.D.NAME"]),
                ],
            )
            .with_abbrev("O"),
        );
        eer.add_relationship(
            RelationshipSet::new(
                "PREREQ_CHECK",
                vec![
                    Participant::new("OFFER", Card::Many).renamed(&["PC.C.NR"]),
                    Participant::new("DEPT", Card::One).renamed(&["PC.D.NAME"]),
                ],
            )
            .with_abbrev("PC"),
        );
        let rs = translate(&eer).unwrap();
        assert!(rs.inds().contains(&InclusionDep::new(
            "PREREQ_CHECK",
            &["PC.C.NR"],
            "OFFER",
            &["O.C.NR"]
        )));
        assert_eq!(
            rs.scheme("PREREQ_CHECK").unwrap().primary_key(),
            ["PC.C.NR"]
        );
    }

    #[test]
    fn weak_entity_composite_key() {
        let mut eer = simple();
        eer.add_entity(
            EntitySet::new(
                "DEPENDENT",
                vec![EerAttribute::required("NAME", Domain::Text)],
                &["NAME"],
            )
            .weak("PERSON")
            .with_abbrev("D"),
        );
        let rs = translate(&eer).unwrap();
        let dep = rs.scheme("DEPENDENT").unwrap();
        assert_eq!(dep.primary_key(), ["D.SSN", "D.NAME"]);
        assert!(rs.inds().contains(&InclusionDep::new(
            "DEPENDENT",
            &["D.SSN"],
            "PERSON",
            &["P.SSN"]
        )));
    }

    #[test]
    fn self_relationship_collision_disambiguated() {
        let mut eer = EerSchema::new();
        eer.add_entity(EntitySet::new(
            "COURSE",
            vec![EerAttribute::required("NR", Domain::Int)],
            &["NR"],
        ));
        eer.add_relationship(RelationshipSet::new(
            "PREREQ",
            vec![
                Participant::new("COURSE", Card::Many),
                Participant::new("COURSE", Card::Many),
            ],
        ));
        let rs = translate(&eer).unwrap();
        let p = rs.scheme("PREREQ").unwrap();
        // Second copy re-inserts the referenced abbreviation.
        assert_eq!(p.attr_names(), ["P.NR", "P.C.NR"]);
        assert_eq!(p.primary_key(), ["P.NR", "P.C.NR"]);
    }

    #[test]
    fn rename_arity_mismatch_rejected() {
        let mut eer = simple();
        eer.add_relationship(RelationshipSet::new(
            "R",
            vec![
                Participant::new("PERSON", Card::Many).renamed(&["A", "B"]),
                Participant::new("PROJECT", Card::One),
            ],
        ));
        assert!(translate(&eer).is_err());
    }
}
