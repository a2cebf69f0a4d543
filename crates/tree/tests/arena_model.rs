//! Model test for the flat arena: random operation sequences applied to a
//! `Tree` and to a naive node map must agree after every step.
//!
//! The model is a `HashMap<NodeId, (label, parent, children)>` — the
//! paper's tree as a plain node map, with no slots, buffers or free list.
//! After each step the tree must match it node for node (children, parent,
//! label), in pre-order and in size; pass `validate`; equal a tree rebuilt
//! from the model; survive a snapshot round trip; and have left every
//! surviving node in the slot it held before the step.

use proptest::prelude::*;
use std::collections::HashMap;
use xvu_tree::{Alphabet, DocTree, NodeId, NodeIdGen, PreorderBuilder, Slot, Sym, Tree};

const LABELS: usize = 6;

type Model = HashMap<NodeId, (Sym, Option<NodeId>, Vec<NodeId>)>;

/// One step. Node operands index the live identifiers in sorted order,
/// modulo their number.
#[derive(Clone, Debug)]
enum Op {
    /// `add_child` under a node, `count` times (a run of appends).
    AddChildren {
        parent: usize,
        count: usize,
        label: usize,
    },
    /// `attach_subtree` of a fresh subtree of `size` nodes at a position.
    Attach {
        parent: usize,
        pos: usize,
        size: usize,
    },
    /// `detach_subtree` of a non-root node; the subtree is dropped.
    Detach { node: usize },
    /// `detach_subtree` then `attach_subtree` elsewhere (outside itself).
    Move {
        node: usize,
        parent: usize,
        pos: usize,
    },
    /// `append_mapped_subtree` of a fresh copy of a source subtree.
    AppendMapped { parent: usize, src: usize },
    /// `reorder_children` of a node, rotated by `by`.
    Reorder { parent: usize, by: usize },
    /// `relabel_subtree`, every label shifted by `shift`.
    Relabel { node: usize, shift: usize },
    /// Replace the tree with its `clone`.
    Clone,
    /// Replace the tree with `map_labels` of it, labels shifted.
    MapLabels { shift: usize },
}

fn arb_op() -> impl Strategy<Value = Op> {
    let ix = || any::<usize>();
    prop_oneof![
        (ix(), 1usize..4, 0usize..LABELS).prop_map(|(parent, count, label)| Op::AddChildren {
            parent,
            count,
            label
        }),
        (ix(), 1usize..4, 0usize..LABELS).prop_map(|(parent, count, label)| Op::AddChildren {
            parent,
            count,
            label
        }),
        (ix(), ix(), 1usize..6).prop_map(|(parent, pos, size)| Op::Attach { parent, pos, size }),
        ix().prop_map(|node| Op::Detach { node }),
        (ix(), ix(), ix()).prop_map(|(node, parent, pos)| Op::Move { node, parent, pos }),
        (ix(), ix()).prop_map(|(parent, src)| Op::AppendMapped { parent, src }),
        (ix(), 1usize..5).prop_map(|(parent, by)| Op::Reorder { parent, by }),
        (ix(), 1usize..LABELS).prop_map(|(node, shift)| Op::Relabel { node, shift }),
        Just(Op::Clone),
        (1usize..LABELS).prop_map(|shift| Op::MapLabels { shift }),
    ]
}

fn sym(i: usize) -> Sym {
    Sym::from_index(i % LABELS)
}

fn shifted(l: Sym, by: usize) -> Sym {
    sym(l.index() + by)
}

/// The tree under test, its model, and the identifier generator both
/// draw from.
struct Harness {
    tree: DocTree,
    model: Model,
    gen: NodeIdGen,
    /// The source of `append_mapped_subtree` copies.
    src: DocTree,
    alpha: Alphabet,
}

impl Harness {
    fn new() -> Harness {
        let mut gen = NodeIdGen::new();
        let tree = Tree::leaf(&mut gen, sym(0));
        let mut model = Model::new();
        model.insert(tree.root(), (sym(0), None, Vec::new()));
        // r(a(b, c(d)), e), labels spread over the alphabet
        let mut src_gen = NodeIdGen::starting_at(1 << 40);
        let mut src = Tree::leaf(&mut src_gen, sym(1));
        let r = src.root();
        let a = src.add_child(r, &mut src_gen, sym(2));
        src.add_child(a, &mut src_gen, sym(3));
        let c = src.add_child(a, &mut src_gen, sym(4));
        src.add_child(c, &mut src_gen, sym(5));
        src.add_child(r, &mut src_gen, sym(0));
        let alpha = Alphabet::from_labels((0..LABELS).map(|i| format!("l{i}")));
        Harness {
            tree,
            model,
            gen,
            src,
            alpha,
        }
    }

    fn ids(&self) -> Vec<NodeId> {
        let mut ids: Vec<NodeId> = self.model.keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    fn pick(&self, ix: usize) -> NodeId {
        let ids = self.ids();
        ids[ix % ids.len()]
    }

    fn is_ancestor_or_self(&self, anc: NodeId, mut n: NodeId) -> bool {
        loop {
            if n == anc {
                return true;
            }
            match self.model[&n].1 {
                Some(p) => n = p,
                None => return false,
            }
        }
    }

    /// Records `tree`'s nodes (in pre-order) under `parent` at `pos` in
    /// the model.
    fn model_graft<L>(
        &mut self,
        tree: &Tree<L>,
        parent: NodeId,
        pos: usize,
        f: impl Fn(&L) -> Sym,
    ) {
        self.model
            .get_mut(&parent)
            .unwrap()
            .2
            .insert(pos, tree.root());
        for n in tree.preorder() {
            let p = if n == tree.root() {
                Some(parent)
            } else {
                tree.parent(n)
            };
            self.model
                .insert(n, (f(&tree.node(n).label), p, tree.children(n).to_vec()));
        }
    }

    fn model_remove(&mut self, n: NodeId) {
        let (_, parent, _) = self.model[&n];
        self.model
            .get_mut(&parent.unwrap())
            .unwrap()
            .2
            .retain(|&c| c != n);
        let mut stack = vec![n];
        while let Some(m) = stack.pop() {
            let (_, _, kids) = self.model.remove(&m).unwrap();
            stack.extend(kids);
        }
    }

    fn model_relabel(&mut self, n: NodeId, by: usize) {
        let mut stack = vec![n];
        while let Some(m) = stack.pop() {
            let entry = self.model.get_mut(&m).unwrap();
            entry.0 = shifted(entry.0, by);
            stack.extend(entry.2.iter().copied());
        }
    }

    /// A fresh subtree of `size` nodes, each under a node picked from the
    /// ones before it.
    fn fresh_subtree(&mut self, size: usize, salt: usize) -> DocTree {
        let mut sub = Tree::leaf(&mut self.gen, sym(salt));
        let mut nodes = vec![sub.root()];
        for i in 1..size {
            let parent = nodes[(salt + i * 7) % nodes.len()];
            nodes.push(sub.add_child(parent, &mut self.gen, sym(salt + i)));
        }
        sub
    }

    fn apply(&mut self, op: &Op) {
        match *op {
            Op::AddChildren {
                parent,
                count,
                label,
            } => {
                let p = self.pick(parent);
                for i in 0..count {
                    let id = self.tree.add_child(p, &mut self.gen, sym(label + i));
                    self.model.get_mut(&p).unwrap().2.push(id);
                    self.model.insert(id, (sym(label + i), Some(p), Vec::new()));
                }
            }
            Op::Attach { parent, pos, size } => {
                let p = self.pick(parent);
                let pos = pos % (self.model[&p].2.len() + 1);
                let sub = self.fresh_subtree(size, parent);
                self.model_graft(&sub, p, pos, |&l| l);
                self.tree.attach_subtree(p, pos, sub).unwrap();
            }
            Op::Detach { node } => {
                let n = self.pick(node);
                if n == self.tree.root() {
                    return;
                }
                let expect = self.tree.subtree(n);
                let sub = self.tree.detach_subtree(n).unwrap();
                sub.validate().unwrap();
                assert_eq!(sub, expect, "the detached subtree is the subtree");
                self.model_remove(n);
            }
            Op::Move { node, parent, pos } => {
                let n = self.pick(node);
                let p = self.pick(parent);
                if n == self.tree.root() || self.is_ancestor_or_self(n, p) {
                    return;
                }
                let sub = self.tree.detach_subtree(n).unwrap();
                self.model_remove(n);
                let pos = pos % (self.model[&p].2.len() + 1);
                self.model_graft(&sub, p, pos, |&l| l);
                self.tree.attach_subtree(p, pos, sub).unwrap();
            }
            Op::AppendMapped { parent, src } => {
                let p = self.pick(parent);
                let ids: Vec<NodeId> = self.src.preorder().collect();
                let copy = self
                    .src
                    .subtree(ids[src % ids.len()])
                    .with_fresh_ids(&mut self.gen);
                let pos = self.model[&p].2.len();
                self.model_graft(&copy, p, pos, |&l| shifted(l, 1));
                self.tree
                    .append_mapped_subtree(p, &copy, copy.root(), |&l| shifted(l, 1))
                    .unwrap();
            }
            Op::Reorder { parent, by } => {
                let p = self.pick(parent);
                let kids = &mut self.model.get_mut(&p).unwrap().2;
                if !kids.is_empty() {
                    let by = by % kids.len();
                    kids.rotate_left(by);
                }
                let order = kids.clone();
                self.tree.reorder_children(p, &order).unwrap();
            }
            Op::Relabel { node, shift } => {
                let n = self.pick(node);
                self.tree
                    .relabel_subtree(n, |&l| shifted(l, shift))
                    .unwrap();
                self.model_relabel(n, shift);
            }
            Op::Clone => {
                self.tree = self.tree.clone();
            }
            Op::MapLabels { shift } => {
                self.tree = self.tree.map_labels(|_, &l| shifted(l, shift));
                let root = self.tree.root();
                self.model_relabel(root, shift);
            }
        }
    }

    /// The model's pre-order.
    fn model_preorder(&self) -> Vec<NodeId> {
        let mut out = Vec::new();
        let mut stack = vec![self.tree.root()];
        while let Some(n) = stack.pop() {
            out.push(n);
            stack.extend(self.model[&n].2.iter().rev());
        }
        out
    }

    /// The model as a tree, built in pre-order from scratch.
    fn rebuilt(&self) -> DocTree {
        let root = self.tree.root();
        let mut b = PreorderBuilder::new(root, self.model[&root].0);
        for n in self.model_preorder().into_iter().skip(1) {
            let (label, parent, _) = self.model[&n];
            b.child(parent.unwrap(), n, label).unwrap();
        }
        b.finish()
    }

    fn slots(&self) -> HashMap<NodeId, Slot> {
        self.tree
            .node_ids()
            .map(|n| (n, self.tree.slot(n).unwrap()))
            .collect()
    }

    /// Every check of the module docs, after `op`.
    fn check(&self, before: &HashMap<NodeId, Slot>, op: &Op) {
        let t = &self.tree;
        t.validate().unwrap_or_else(|e| panic!("{op:?}: {e}"));
        assert_eq!(t.size(), self.model.len(), "{op:?}");
        for (&n, (label, parent, kids)) in &self.model {
            assert_eq!(t.label(n), *label, "{op:?}: label of {n}");
            assert_eq!(t.parent(n), *parent, "{op:?}: parent of {n}");
            assert_eq!(t.children(n), kids.as_slice(), "{op:?}: children of {n}");
        }
        assert_eq!(
            t.preorder().collect::<Vec<_>>(),
            self.model_preorder(),
            "{op:?}"
        );
        let rebuilt = self.rebuilt();
        assert!(
            *t == rebuilt && rebuilt.eq(t),
            "{op:?}: == the rebuilt model"
        );
        let bytes = t.to_snapshot_bytes(&self.alpha).unwrap();
        let mut alpha = self.alpha.clone();
        let back = DocTree::from_snapshot_bytes(&bytes, &mut alpha).unwrap();
        assert_eq!(back, *t, "{op:?}: snapshot round trip");
        back.validate().unwrap();
        for (n, s) in before {
            if let Some(now) = t.slot(*n) {
                assert_eq!(now, *s, "{op:?}: {n} moved");
            }
        }
    }

    fn step(&mut self, op: &Op) {
        let before = self.slots();
        self.apply(op);
        self.check(&before, op);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn arena_agrees_with_a_node_map_model(ops in prop::collection::vec(arb_op(), 1..80)) {
        let mut h = Harness::new();
        for op in &ops {
            h.step(op);
        }
    }
}

#[test]
fn removals_compact_the_child_buffer_and_keep_the_model() {
    // Every root child gets a child of its own right away, so each append
    // to the root finds its list away from the end of the buffer and moves
    // it when full; then removing most of the nodes abandons their lists
    // until the dead entries outnumber the live ones and the buffer
    // compacts. Moves interleave so lists land at both ends.
    let mut h = Harness::new();
    for i in 0..300 {
        h.step(&Op::AddChildren {
            parent: 0,
            count: 1,
            label: i,
        });
        let last = h.ids().len() - 1;
        h.step(&Op::AddChildren {
            parent: last,
            count: 1,
            label: i + 1,
        });
    }
    for i in 0..500 {
        h.step(&Op::Detach { node: 1 + i * 3 });
        if i % 25 == 0 {
            h.step(&Op::Move {
                node: i,
                parent: i * 7,
                pos: i,
            });
        }
        if h.model.len() < 40 {
            break;
        }
    }
    assert!(h.model.len() < 100, "{} nodes left", h.model.len());
}

#[test]
fn a_node_with_5000_children_keeps_the_model() {
    // A wide star whose list moves many times (each child grows a child
    // at once), then reordered, thinned in the middle and grafted at the
    // front; the model is checked at intervals (each check is linear).
    let mut h = Harness::new();
    let root = h.tree.root();
    for i in 0..5_000usize {
        let c = h.tree.add_child(root, &mut h.gen, sym(i));
        h.model.get_mut(&root).unwrap().2.push(c);
        h.model.insert(c, (sym(i), Some(root), Vec::new()));
        if i % 3 == 0 {
            let g = h.tree.add_child(c, &mut h.gen, sym(i + 1));
            h.model.get_mut(&c).unwrap().2.push(g);
            h.model.insert(g, (sym(i + 1), Some(c), Vec::new()));
        }
        if i % 1_000 == 999 {
            h.check(&h.slots(), &Op::Clone);
        }
    }
    assert!(h.tree.children(root).len() >= 5_000);
    h.step(&Op::Reorder {
        parent: 0,
        by: 1_234,
    });
    for k in 0..50 {
        let kids = h.model[&root].2.clone();
        let victim = kids[kids.len() / 2 + k];
        let ix = h.ids().binary_search(&victim).unwrap();
        h.step(&Op::Detach { node: ix });
    }
    h.step(&Op::Attach {
        parent: 0,
        pos: 0,
        size: 5,
    });
    h.step(&Op::AppendMapped { parent: 0, src: 0 });
    h.step(&Op::MapLabels { shift: 2 });
    h.step(&Op::Clone);
}
