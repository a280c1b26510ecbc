//! The Rete network (Forgy 1982): incremental many-pattern/many-object
//! matching with partial-match state.
//!
//! Structure (following the classic description, with the negation
//! handling of Doorenbos' formulation):
//!
//! * The **alpha network** ([`crate::AlphaNetwork`]) evaluates class and
//!   constant tests once per WME and stores survivors in shared alpha
//!   memories.
//! * The **beta network** is a DAG of *sources* (token holders) and
//!   *joins*. A source is the top memory (holding the dummy token), a
//!   beta memory, or a negative node (holding the tokens whose negated
//!   pattern currently has **no** match). Join nodes test variable
//!   consistency between a source's tokens and an alpha memory and feed
//!   the next beta memory. Production nodes deliver complete tokens to
//!   the conflict set as [`Instantiation`]s that view the token's chain.
//! * **Sharing**: alpha memories are shared by constant-test signature;
//!   join, memory and negative nodes are shared by
//!   `(parent, alpha memory, tests)`, so rules with common LHS prefixes
//!   share beta state too.
//!
//! **Hash-indexed joins**: when a join's tests include an equality
//! against an earlier condition's attribute, both sides are indexed —
//! the alpha memory by the tested attribute's value and the join by the
//! tokens' key value — so activations probe a bucket instead of
//! scanning the whole memory (keys are normalised so the strict hash
//! lookup coincides with the matcher's numerically coercing equality).
//!
//! Removal is exact (no recomputation): every token records its parent
//! and children, a WME-to-token index locates all tokens carrying a
//! retracted WME, and negative nodes keep per-token join-result sets so a
//! retraction can *enable* previously blocked tokens.
//!
//! **Copy-free activations**: WMEs enter the network once as `Arc<Wme>`
//! (alpha memories, tokens and chains share them), and every token owns
//! its condition-indexed chain, built once when the token is allocated.
//! Join tests, index probes and production delivery read that chain in
//! place; nothing on an activation path clones a WME's payload. An
//! instantiation shares the chain and its rule's binding sites, so a
//! delivery allocates only the instantiation's key.

use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

use dps_rules::{BindingSite, Condition, Predicate, Rule, RuleId, RuleSet, TestAtom, VarName};
use dps_wm::{Atom, Change, Timestamp, Value, Wme, WmeId, WorkingMemory};

use crate::alpha::index_key;
use crate::idhash::{IdMap, IdSet};
use crate::{AlphaMemId, AlphaNetwork, Chain, ConflictSet, InstKey, Instantiation, Matcher};

/// Index of a node in the Rete graph.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
struct NodeId(usize);

/// Identifier of a token: its slot in the token arena. A slot is reused
/// once its token is deleted.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
struct TokenId(u32);

/// Where a join test reads its right-hand value.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
enum TestTarget {
    /// Another attribute of the candidate WME itself (intra-CE test).
    NewAttr(Atom),
    /// An attribute of the WME matched at an earlier condition.
    Token {
        /// Condition index (0-based over *all* conditions).
        cond: usize,
        /// Attribute of that WME.
        attr: Atom,
    },
}

/// One variable-consistency test evaluated at a join or negative node.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
struct JoinTest {
    /// Attribute of the candidate WME (left operand).
    new_attr: Atom,
    /// Predicate, applied as `predicate(new_value, target_value)`.
    predicate: Predicate,
    /// Right operand source.
    target: TestTarget,
}

/// A token: a partial match covering conditions `0..=level`.
#[derive(Clone, Debug)]
struct Token {
    parent: Option<TokenId>,
    /// The parent's chain plus this token's own entry (empty for the
    /// dummy token).
    chain: Chain,
    /// Node that owns (stores) this token.
    owner: NodeId,
    children: Vec<TokenId>,
}

impl Token {
    /// The WME matched at this token's own condition (`None` for the
    /// dummy token and for negative-node output tokens).
    fn wme(&self) -> Option<&Arc<Wme>> {
        self.chain.last().and_then(Option::as_ref)
    }
}

#[derive(Clone, Debug)]
enum Node {
    /// Token holder (top memory or beta memory). Children are join,
    /// negative and production nodes.
    Memory {
        tokens: BTreeSet<TokenId>,
        children: Arc<[NodeId]>,
    },
    /// Join between `parent` source tokens and `amem`. Its child is the
    /// beta memory receiving matched (token, wme) pairs. When the tests
    /// include an equality against an earlier condition's attribute, the
    /// join is *hash-indexed*: `index` buckets the parent's tokens by
    /// their key value, and the alpha memory carries a matching value
    /// index, so activations probe instead of scanning.
    Join {
        parent: NodeId,
        amem: AlphaMemId,
        tests: Vec<JoinTest>,
        out: NodeId,
        index: Option<JoinIndex>,
    },
    /// Negated condition. Owns an *output* token per input token whose
    /// join against `amem` is empty; children are like a memory's.
    Negative {
        amem: AlphaMemId,
        tests: Vec<JoinTest>,
        /// input token → (matching wme ids, output token if none match)
        entries: IdMap<TokenId, NegEntry>,
        /// Output tokens (for source iteration by downstream joins).
        tokens: BTreeSet<TokenId>,
        children: Arc<[NodeId]>,
    },
    /// Terminal node: delivers complete tokens to the conflict set as
    /// instantiations viewing the token's chain.
    Production {
        rule: RuleId,
        salience: i32,
        /// The rule's binding sites, shared by its instantiations.
        sites: Arc<[BindingSite]>,
        /// final token → instantiation key in the conflict set.
        insts: IdMap<TokenId, Arc<InstKey>>,
    },
}

/// Hash support for an equality join: the first `Eq`-against-token test
/// becomes the probe key on both sides.
#[derive(Clone, Debug)]
struct JoinIndex {
    /// Attribute of the candidate WME (alpha side).
    new_attr: Atom,
    /// Condition index of the token-side operand.
    cond: usize,
    /// Attribute of the token-side operand.
    attr: Atom,
    /// Normalised token-side key → tokens of the parent source.
    tokens_by_key: HashMap<Value, BTreeSet<TokenId>>,
}

#[derive(Clone, Debug, Default)]
struct NegEntry {
    results: IdSet<WmeId>,
    out: Option<TokenId>,
}

/// Statistics about network size and activity, for benchmarks and tests.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReteStats {
    /// Distinct alpha memories.
    pub alpha_memories: usize,
    /// Beta-level nodes (memories + negatives).
    pub beta_nodes: usize,
    /// Join nodes.
    pub join_nodes: usize,
    /// Join nodes with a hash index (equality probe instead of scan).
    pub indexed_joins: usize,
    /// Production nodes.
    pub production_nodes: usize,
    /// Live tokens (partial matches currently stored).
    pub tokens: usize,
    /// Right activations processed since construction.
    pub right_activations: u64,
    /// Left activations processed since construction.
    pub left_activations: u64,
}

/// The Rete matcher. See the module docs.
#[derive(Clone, Debug)]
pub struct Rete {
    alpha: AlphaNetwork,
    nodes: Vec<Node>,
    /// Join/negative nodes attached to each alpha memory, in build order.
    amem_successors: HashMap<AlphaMemId, Arc<[NodeId]>>,
    /// Sharing keys for join/negative/memory nodes.
    join_share: HashMap<(NodeId, AlphaMemId, Vec<JoinTest>, bool), NodeId>,
    /// Token arena, indexed by [`TokenId`]; `None` marks a free slot.
    tokens: Vec<Option<Token>>,
    /// Free slots of `tokens`, reused before the arena grows.
    free_tokens: Vec<TokenId>,
    /// Tokens whose own `wme` is this id.
    tokens_by_wme: IdMap<WmeId, IdSet<TokenId>>,
    /// (negative node, input token) pairs whose result set contains the id.
    neg_by_wme: IdMap<WmeId, IdSet<(NodeId, TokenId)>>,
    conflict: ConflictSet,
    stats: ReteStats,
    top: NodeId,
    dummy: TokenId,
}

impl Rete {
    /// Builds the network for `rules` and loads the initial working
    /// memory.
    pub fn new(rules: &RuleSet, wm: &WorkingMemory) -> Self {
        Rete::with_rules(rules.iter(), wm)
    }

    /// Builds the network for an arbitrary `(RuleId, &Rule)` collection
    /// and loads the initial working memory.
    ///
    /// The given ids are stored verbatim in the production nodes, so the
    /// resulting conflict set speaks the *caller's* id space. This is
    /// what lets a match shard own a Rete over a subset of the rule set
    /// while still emitting global rule ids — no translation layer and no
    /// re-merged conflict set (see [`crate::ShardedRete`]).
    pub fn with_rules<'a>(
        rules: impl IntoIterator<Item = (RuleId, &'a Rule)>,
        wm: &WorkingMemory,
    ) -> Self {
        let mut rete = Rete {
            alpha: AlphaNetwork::default(),
            nodes: vec![Node::Memory {
                tokens: BTreeSet::new(),
                children: Arc::new([]),
            }],
            amem_successors: HashMap::new(),
            join_share: HashMap::new(),
            tokens: Vec::new(),
            free_tokens: Vec::new(),
            tokens_by_wme: IdMap::default(),
            neg_by_wme: IdMap::default(),
            conflict: ConflictSet::new(),
            stats: ReteStats::default(),
            top: NodeId(0),
            dummy: TokenId(0),
        };
        // Install the dummy token.
        let dummy = rete.alloc_token(None, None, rete.top);
        rete.dummy = dummy;
        if let Node::Memory { tokens, .. } = &mut rete.nodes[0] {
            tokens.insert(dummy);
        }
        for (id, rule) in rules {
            rete.compile_rule(id, rule);
        }
        for wme in wm.iter() {
            rete.add_wme(Arc::new(wme.clone()));
        }
        rete
    }

    /// Current network statistics.
    pub fn stats(&self) -> ReteStats {
        let mut s = self.stats;
        s.alpha_memories = self.alpha.memory_count();
        s.tokens = self.tokens.len() - self.free_tokens.len() - 1; // exclude the dummy
        for n in &self.nodes {
            match n {
                Node::Memory { .. } | Node::Negative { .. } => s.beta_nodes += 1,
                Node::Join { index, .. } => {
                    s.join_nodes += 1;
                    if index.is_some() {
                        s.indexed_joins += 1;
                    }
                }
                Node::Production { .. } => s.production_nodes += 1,
            }
        }
        s
    }

    // -------------------------------------------------------------
    // Compilation
    // -------------------------------------------------------------

    fn compile_rule(&mut self, id: RuleId, rule: &Rule) {
        let sites: Arc<[BindingSite]> = rule.binding_sites().into();
        let mut source = self.top;
        for (ci, cond) in rule.conditions.iter().enumerate() {
            let ce = cond.ce();
            let amem = self.alpha.register(ce);
            // Build the variable-consistency tests for this CE.
            let mut tests = Vec::new();
            // Local (within this CE) first occurrences, for intra-CE tests
            // and for locally bound negative-CE variables.
            let mut local_first: Vec<(VarName, Atom)> = Vec::new();
            for t in &ce.tests {
                let TestAtom::Var(var) = &t.operand else {
                    continue;
                };
                // A site at an earlier condition makes this a join test.
                let global = sites
                    .iter()
                    .find(|s| &s.var == var && s.cond < ci)
                    .map(|s| (s.cond, s.attr.clone()));
                let local = local_first
                    .iter()
                    .find(|(v, _)| v == var)
                    .map(|(_, a)| a.clone());
                match (t.predicate, global, local) {
                    // Binding occurrence: variable not seen anywhere yet.
                    (Predicate::Eq, None, None) => {
                        local_first.push((var.clone(), t.attr.clone()));
                    }
                    // Test against an earlier condition's binding.
                    (p, Some((cond_idx, attr)), None) => {
                        tests.push(JoinTest {
                            new_attr: t.attr.clone(),
                            predicate: p,
                            target: TestTarget::Token {
                                cond: cond_idx,
                                attr,
                            },
                        });
                    }
                    // Intra-CE test (local occurrence takes precedence:
                    // inside a negated CE the local binding shadows).
                    (p, _, Some(local_attr)) => {
                        tests.push(JoinTest {
                            new_attr: t.attr.clone(),
                            predicate: p,
                            target: TestTarget::NewAttr(local_attr),
                        });
                    }
                    // Validation guarantees non-Eq predicates are bound.
                    (_, None, None) => unreachable!("validated rule has no unbound test"),
                }
            }

            match cond {
                Condition::Pos(_) => {
                    source = self.get_or_make_join(source, amem, tests);
                }
                Condition::Neg(_) => {
                    source = self.get_or_make_negative(source, amem, tests);
                }
            }
        }

        // Attach the production node.
        let pnode = NodeId(self.nodes.len());
        self.nodes.push(Node::Production {
            rule: id,
            salience: rule.salience,
            sites,
            insts: IdMap::default(),
        });
        self.add_child(source, pnode);
        // Activate for tokens already in the source (sharing may reuse a
        // populated subnetwork).
        for t in self.source_tokens(source) {
            self.deliver_to_production(pnode, t);
        }
    }

    fn get_or_make_join(
        &mut self,
        parent: NodeId,
        amem: AlphaMemId,
        tests: Vec<JoinTest>,
    ) -> NodeId {
        let key = (parent, amem, tests.clone(), false);
        if let Some(&join) = self.join_share.get(&key) {
            let Node::Join { out, .. } = &self.nodes[join.0] else {
                unreachable!()
            };
            return *out;
        }
        // Pick the first token-equality test as the hash-join key.
        let index = tests.iter().find_map(|t| match (&t.predicate, &t.target) {
            (Predicate::Eq, TestTarget::Token { cond, attr }) => Some(JoinIndex {
                new_attr: t.new_attr.clone(),
                cond: *cond,
                attr: attr.clone(),
                tokens_by_key: HashMap::new(),
            }),
            _ => None,
        });
        if let Some(ix) = &index {
            self.alpha.ensure_index(amem, &ix.new_attr);
        }
        let join = NodeId(self.nodes.len());
        let out = NodeId(self.nodes.len() + 1);
        self.nodes.push(Node::Join {
            parent,
            amem,
            tests,
            out,
            index,
        });
        self.nodes.push(Node::Memory {
            tokens: BTreeSet::new(),
            children: Arc::new([]),
        });
        self.add_child(parent, join);
        self.add_successor(amem, join);
        self.join_share.insert(key, join);
        // Populate from existing state (tokens × amem).
        let parent_tokens = self.source_tokens(parent);
        for t in parent_tokens {
            self.index_token(join, t);
            self.join_left_activate(join, t);
        }
        out
    }

    fn get_or_make_negative(
        &mut self,
        parent: NodeId,
        amem: AlphaMemId,
        tests: Vec<JoinTest>,
    ) -> NodeId {
        let key = (parent, amem, tests.clone(), true);
        if let Some(&neg) = self.join_share.get(&key) {
            return neg;
        }
        let neg = NodeId(self.nodes.len());
        self.nodes.push(Node::Negative {
            amem,
            tests,
            entries: IdMap::default(),
            tokens: BTreeSet::new(),
            children: Arc::new([]),
        });
        self.add_child(parent, neg);
        self.add_successor(amem, neg);
        self.join_share.insert(key, neg);
        for t in self.source_tokens(parent) {
            self.negative_left_activate(neg, t);
        }
        neg
    }

    fn add_child(&mut self, parent: NodeId, child: NodeId) {
        match &mut self.nodes[parent.0] {
            Node::Memory { children, .. } | Node::Negative { children, .. } => {
                *children = children.iter().copied().chain([child]).collect();
            }
            _ => unreachable!("only sources have children"),
        }
    }

    fn add_successor(&mut self, amem: AlphaMemId, node: NodeId) {
        let succs = self
            .amem_successors
            .entry(amem)
            .or_insert_with(|| Arc::new([]));
        *succs = succs.iter().copied().chain([node]).collect();
    }

    // -------------------------------------------------------------
    // Token plumbing
    // -------------------------------------------------------------

    /// Allocates a token under `parent` (`None` only for the dummy),
    /// extending the parent's chain with `wme`. The dummy token does not
    /// track its children: it is never deleted.
    fn alloc_token(
        &mut self,
        parent: Option<TokenId>,
        wme: Option<Arc<Wme>>,
        owner: NodeId,
    ) -> TokenId {
        let id = match self.free_tokens.pop() {
            Some(id) => id,
            None => {
                self.tokens.push(None);
                TokenId(u32::try_from(self.tokens.len() - 1).expect("token arena overflow"))
            }
        };
        if let Some(w) = &wme {
            self.tokens_by_wme.entry(w.id).or_default().insert(id);
        }
        let chain: Chain = match parent {
            Some(p) => {
                let is_dummy = p == self.dummy;
                let pt = self.token_mut(p).expect("parent token is live");
                if !is_dummy {
                    pt.children.push(id);
                }
                pt.chain.iter().cloned().chain([wme]).collect()
            }
            None => Arc::new([]),
        };
        self.tokens[id.0 as usize] = Some(Token {
            parent,
            chain,
            owner,
            children: Vec::new(),
        });
        id
    }

    /// The live token in slot `tid`, if any.
    fn token_mut(&mut self, tid: TokenId) -> Option<&mut Token> {
        self.tokens[tid.0 as usize].as_mut()
    }

    /// A token's condition-indexed chain (see [`Chain`]).
    fn chain(&self, tid: TokenId) -> &[Option<Arc<Wme>>] {
        &self.tokens[tid.0 as usize]
            .as_ref()
            .expect("live token")
            .chain
    }

    fn source_token_set(&self, node: NodeId) -> &BTreeSet<TokenId> {
        match &self.nodes[node.0] {
            Node::Memory { tokens, .. } | Node::Negative { tokens, .. } => tokens,
            _ => unreachable!("only sources hold tokens"),
        }
    }

    fn source_tokens(&self, node: NodeId) -> Vec<TokenId> {
        self.source_token_set(node).iter().copied().collect()
    }

    /// A source's children (shared: the list is fixed once compiled).
    fn source_children(&self, node: NodeId) -> Arc<[NodeId]> {
        match &self.nodes[node.0] {
            Node::Memory { children, .. } | Node::Negative { children, .. } => Arc::clone(children),
            _ => unreachable!(),
        }
    }

    /// The normalised token-side key of `chain` for a join index.
    fn chain_key(chain: &[Option<Arc<Wme>>], cond: usize, attr: &str) -> Value {
        match chain.get(cond) {
            Some(Some(w)) => index_key(&w.get_or_nil(attr)),
            _ => Value::Nil,
        }
    }

    /// Adds `token` to a join's hash index (no-op for unindexed joins).
    fn index_token(&mut self, join: NodeId, token: TokenId) {
        let Node::Join {
            index: Some(ix), ..
        } = &self.nodes[join.0]
        else {
            return;
        };
        let key = Self::chain_key(self.chain(token), ix.cond, ix.attr.as_str());
        let Node::Join {
            index: Some(ix), ..
        } = &mut self.nodes[join.0]
        else {
            unreachable!()
        };
        ix.tokens_by_key.entry(key).or_default().insert(token);
    }

    /// Removes `token` from a join's hash index.
    fn unindex_token(&mut self, join: NodeId, token: TokenId, chain: &[Option<Arc<Wme>>]) {
        let Node::Join {
            index: Some(ix), ..
        } = &self.nodes[join.0]
        else {
            return;
        };
        let key = Self::chain_key(chain, ix.cond, ix.attr.as_str());
        let Node::Join {
            index: Some(ix), ..
        } = &mut self.nodes[join.0]
        else {
            unreachable!()
        };
        if let Some(bucket) = ix.tokens_by_key.get_mut(&key) {
            bucket.remove(&token);
            if bucket.is_empty() {
                ix.tokens_by_key.remove(&key);
            }
        }
    }

    fn eval_tests(tests: &[JoinTest], chain: &[Option<Arc<Wme>>], new: &Wme) -> bool {
        tests.iter().all(|t| {
            let left = new.get_or_nil(t.new_attr.as_str());
            let right = match &t.target {
                TestTarget::NewAttr(attr) => new.get_or_nil(attr.as_str()),
                TestTarget::Token { cond, attr } => match chain.get(*cond) {
                    Some(Some(w)) => w.get_or_nil(attr.as_str()),
                    _ => return false,
                },
            };
            t.predicate.apply(&left, &right)
        })
    }

    // -------------------------------------------------------------
    // Activations
    // -------------------------------------------------------------

    /// A new token appeared in `source`: tell all its children.
    fn source_token_added(&mut self, source: NodeId, token: TokenId) {
        let children = self.source_children(source);
        // Register in all indexed joins first, then activate.
        for &child in children.iter() {
            if matches!(&self.nodes[child.0], Node::Join { index: Some(_), .. }) {
                self.index_token(child, token);
            }
        }
        for &child in children.iter() {
            match &self.nodes[child.0] {
                Node::Join { .. } => self.join_left_activate(child, token),
                Node::Negative { .. } => self.negative_left_activate(child, token),
                Node::Production { .. } => self.deliver_to_production(child, token),
                Node::Memory { .. } => unreachable!("memories hang off joins"),
            }
        }
    }

    fn join_left_activate(&mut self, join: NodeId, token: TokenId) {
        self.stats.left_activations += 1;
        let Node::Join {
            amem,
            tests,
            out,
            index,
            ..
        } = &self.nodes[join.0]
        else {
            unreachable!()
        };
        let out = *out;
        let chain = self.chain(token);
        let mem = self.alpha.memory(*amem);
        let passes = |w: &&Arc<Wme>| Self::eval_tests(tests, chain, w);
        // Tests are evaluated up front: activating `out` only adds tokens
        // below this join, so it cannot change the candidates' outcome.
        let matched: Vec<Arc<Wme>> = match index {
            Some(ix) => {
                let key = Self::chain_key(chain, ix.cond, ix.attr.as_str());
                mem.lookup(ix.new_attr.as_str(), &key)
                    .iter()
                    .filter_map(|&id| mem.get(id))
                    .filter(passes)
                    .cloned()
                    .collect()
            }
            None => mem.wmes().iter().filter(passes).cloned().collect(),
        };
        for w in matched {
            self.memory_add_token(out, token, w);
        }
    }

    fn join_right_activate(&mut self, join: NodeId, w: &Arc<Wme>) {
        self.stats.right_activations += 1;
        let Node::Join {
            parent,
            tests,
            out,
            index,
            ..
        } = &self.nodes[join.0]
        else {
            unreachable!()
        };
        let out = *out;
        let passes = |t: &TokenId| Self::eval_tests(tests, self.chain(*t), w);
        let matched: Vec<TokenId> = match index {
            Some(ix) => {
                let key = index_key(&w.get_or_nil(ix.new_attr.as_str()));
                ix.tokens_by_key
                    .get(&key)
                    .into_iter()
                    .flatten()
                    .copied()
                    .filter(passes)
                    .collect()
            }
            None => self
                .source_token_set(*parent)
                .iter()
                .copied()
                .filter(passes)
                .collect(),
        };
        for t in matched {
            self.memory_add_token(out, t, Arc::clone(w));
        }
    }

    fn memory_add_token(&mut self, mem: NodeId, parent: TokenId, w: Arc<Wme>) {
        let tid = self.alloc_token(Some(parent), Some(w), mem);
        let Node::Memory { tokens, .. } = &mut self.nodes[mem.0] else {
            unreachable!()
        };
        tokens.insert(tid);
        self.source_token_added(mem, tid);
    }

    fn negative_left_activate(&mut self, neg: NodeId, input: TokenId) {
        self.stats.left_activations += 1;
        let Node::Negative { amem, tests, .. } = &self.nodes[neg.0] else {
            unreachable!()
        };
        let chain = self.chain(input);
        let results: IdSet<WmeId> = self
            .alpha
            .memory(*amem)
            .wmes()
            .iter()
            .filter(|w| Self::eval_tests(tests, chain, w))
            .map(|w| w.id)
            .collect();
        for wid in &results {
            self.neg_by_wme
                .entry(*wid)
                .or_default()
                .insert((neg, input));
        }
        let empty = results.is_empty();
        let Node::Negative { entries, .. } = &mut self.nodes[neg.0] else {
            unreachable!()
        };
        entries.insert(input, NegEntry { results, out: None });
        if empty {
            self.negative_emit(neg, input);
        }
    }

    /// Creates and propagates the output token for a blocked-free input.
    fn negative_emit(&mut self, neg: NodeId, input: TokenId) {
        let out_tok = self.alloc_token(Some(input), None, neg);
        let Node::Negative {
            entries, tokens, ..
        } = &mut self.nodes[neg.0]
        else {
            unreachable!()
        };
        if let Some(e) = entries.get_mut(&input) {
            e.out = Some(out_tok);
        }
        tokens.insert(out_tok);
        self.source_token_added(neg, out_tok);
    }

    fn negative_right_activate(&mut self, neg: NodeId, w: &Wme) {
        self.stats.right_activations += 1;
        let Node::Negative { tests, entries, .. } = &self.nodes[neg.0] else {
            unreachable!()
        };
        // Retracting an output token only deletes tokens below this
        // node, so no input's test outcome changes in between.
        let blocked: Vec<TokenId> = entries
            .keys()
            .copied()
            .filter(|t| Self::eval_tests(tests, self.chain(*t), w))
            .collect();
        for input in blocked {
            self.neg_by_wme
                .entry(w.id)
                .or_default()
                .insert((neg, input));
            let Node::Negative { entries, .. } = &mut self.nodes[neg.0] else {
                unreachable!()
            };
            let entry = entries.get_mut(&input).expect("input is keyed");
            let was_empty = entry.results.is_empty();
            entry.results.insert(w.id);
            if was_empty {
                // The negated pattern now matches: retract the output.
                if let Some(out) = entry.out.take() {
                    self.delete_token(out);
                }
            }
        }
    }

    fn deliver_to_production(&mut self, pnode: NodeId, token: TokenId) {
        let chain = &self.tokens[token.0 as usize]
            .as_ref()
            .expect("live token")
            .chain;
        let Node::Production {
            rule,
            salience,
            sites,
            insts,
        } = &mut self.nodes[pnode.0]
        else {
            unreachable!()
        };
        let inst = Instantiation::new(*rule, *salience, Arc::clone(chain), Arc::clone(sites));
        let key = Arc::new(inst.key());
        insts.insert(token, Arc::clone(&key));
        self.conflict.insert_keyed(key, inst);
    }

    // -------------------------------------------------------------
    // Deletion
    // -------------------------------------------------------------

    fn delete_token(&mut self, tid: TokenId) {
        let Some(token) = self.token_mut(tid) else {
            return;
        };
        let children = std::mem::take(&mut token.children);
        let owner = token.owner;
        let parent = token.parent;
        let wme_id = token.wme().map(|w| w.id);
        let chain = Arc::clone(&token.chain);
        for c in children {
            self.delete_token(c);
        }
        // Drop the token from sibling join hash indexes.
        let owner_children = self.source_children(owner);
        for &child in owner_children.iter() {
            if matches!(&self.nodes[child.0], Node::Join { index: Some(_), .. }) {
                self.unindex_token(child, tid, &chain);
            }
        }
        // Production retractions: the owner's production children hold
        // instantiations keyed by this token.
        for &child in owner_children.iter() {
            if let Node::Production { insts, .. } = &mut self.nodes[child.0] {
                if let Some(key) = insts.remove(&tid) {
                    self.conflict.remove(&key);
                }
            }
        }
        // Detach from owner.
        match &mut self.nodes[owner.0] {
            Node::Memory { tokens, .. } => {
                tokens.remove(&tid);
            }
            Node::Negative {
                entries, tokens, ..
            } => {
                tokens.remove(&tid);
                // This was an output token; clear the back-pointer.
                if let Some(p) = parent {
                    if let Some(e) = entries.get_mut(&p) {
                        if e.out == Some(tid) {
                            e.out = None;
                        }
                    }
                }
            }
            _ => unreachable!("tokens live in sources"),
        }
        // If this token is an *input* of negative children, drop their
        // entries and index links (output tokens are our children and are
        // already gone).
        for &child in owner_children.iter() {
            if let Node::Negative { entries, .. } = &mut self.nodes[child.0] {
                if let Some(entry) = entries.remove(&tid) {
                    for wid in entry.results {
                        if let Some(set) = self.neg_by_wme.get_mut(&wid) {
                            set.remove(&(child, tid));
                        }
                    }
                }
            }
        }
        if let Some(p) = parent.filter(|&p| p != self.dummy) {
            if let Some(pt) = self.token_mut(p) {
                pt.children.retain(|&c| c != tid);
            }
        }
        if let Some(wid) = wme_id {
            if let Some(set) = self.tokens_by_wme.get_mut(&wid) {
                set.remove(&tid);
                if set.is_empty() {
                    self.tokens_by_wme.remove(&wid);
                }
            }
        }
        self.tokens[tid.0 as usize] = None;
        self.free_tokens.push(tid);
    }

    // -------------------------------------------------------------
    // WME-level entry points
    // -------------------------------------------------------------

    fn add_wme(&mut self, wme: Arc<Wme>) {
        let hits = self.alpha.add_wme(Arc::clone(&wme));
        for amem in hits {
            let Some(succs) = self.amem_successors.get(&amem).cloned() else {
                continue;
            };
            for &node in succs.iter() {
                match &self.nodes[node.0] {
                    Node::Join { .. } => self.join_right_activate(node, &wme),
                    Node::Negative { .. } => self.negative_right_activate(node, &wme),
                    _ => unreachable!(),
                }
            }
        }
    }

    fn remove_wme(&mut self, class: &Atom, id: WmeId) {
        self.alpha.remove_wme(class, id);
        // Kill tokens carrying the WME (`delete_token` tolerates the
        // already-drained index entry).
        let carriers = self.tokens_by_wme.remove(&id).unwrap_or_default();
        for t in carriers {
            self.delete_token(t);
        }
        // Unblock negative entries that were matched by it.
        let blocked: Vec<(NodeId, TokenId)> = self
            .neg_by_wme
            .remove(&id)
            .map(|s| s.into_iter().collect())
            .unwrap_or_default();
        let mut to_emit = Vec::new();
        for (neg, input) in blocked {
            let Node::Negative { entries, .. } = &mut self.nodes[neg.0] else {
                unreachable!()
            };
            if let Some(e) = entries.get_mut(&input) {
                e.results.remove(&id);
                if e.results.is_empty() && e.out.is_none() {
                    to_emit.push((neg, input));
                }
            }
        }
        // Deterministic order across HashMap iteration.
        to_emit.sort_unstable_by_key(|&(n, t)| (n, t));
        for (neg, input) in to_emit {
            self.negative_emit(neg, input);
        }
    }

    /// Test/debug helper: the timestamps of all live tokens (excluding
    /// the dummy), for state-size assertions.
    #[doc(hidden)]
    pub fn live_token_timestamps(&self) -> Vec<Timestamp> {
        let mut ts: Vec<Timestamp> = self
            .tokens
            .iter()
            .flatten()
            .filter_map(|t| t.wme().map(|w| w.timestamp))
            .collect();
        ts.sort_unstable();
        ts
    }
}

impl Matcher for Rete {
    fn apply(&mut self, changes: &[Change]) {
        for change in changes {
            match change {
                Change::Added(w) => self.add_wme(Arc::new(w.clone())),
                Change::Removed(w) => self.remove_wme(&w.data.class.clone(), w.id),
            }
        }
    }

    fn conflict_set(&self) -> &ConflictSet {
        &self.conflict
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dps_wm::{DeltaSet, Value, WmeData};

    fn setup(rules_src: &str) -> (RuleSet, WorkingMemory) {
        (RuleSet::parse(rules_src).unwrap(), WorkingMemory::new())
    }

    fn apply_insert(rete: &mut Rete, wm: &mut WorkingMemory, data: WmeData) -> WmeId {
        let w = wm.insert_full(data);
        let id = w.id;
        rete.apply(&[Change::Added(w)]);
        id
    }

    fn apply_remove(rete: &mut Rete, wm: &mut WorkingMemory, id: WmeId) {
        let w = wm.remove(id).unwrap();
        rete.apply(&[Change::Removed(w)]);
    }

    #[test]
    fn single_ce_match_and_retract() {
        let (rules, mut wm) = setup("(p r (job ^state open) --> (remove 1))");
        let mut rete = Rete::new(&rules, &wm);
        assert!(rete.conflict_set().is_empty());
        let id = apply_insert(
            &mut rete,
            &mut wm,
            WmeData::new("job").with("state", "open"),
        );
        assert_eq!(rete.conflict_set().len(), 1);
        apply_remove(&mut rete, &mut wm, id);
        assert!(rete.conflict_set().is_empty());
        assert!(rete.live_token_timestamps().is_empty(), "no leaked tokens");
    }

    #[test]
    fn join_on_shared_variable() {
        let (rules, mut wm) = setup("(p r (a ^k <x>) (b ^k <x>) --> (remove 1))");
        let mut rete = Rete::new(&rules, &wm);
        apply_insert(&mut rete, &mut wm, WmeData::new("a").with("k", 1i64));
        apply_insert(&mut rete, &mut wm, WmeData::new("b").with("k", 2i64));
        assert!(rete.conflict_set().is_empty(), "keys differ");
        apply_insert(&mut rete, &mut wm, WmeData::new("b").with("k", 1i64));
        assert_eq!(rete.conflict_set().len(), 1);
        // A second `a` with k=1 doubles the instantiations.
        apply_insert(&mut rete, &mut wm, WmeData::new("a").with("k", 1i64));
        assert_eq!(rete.conflict_set().len(), 2);
    }

    #[test]
    fn cross_ce_ordering_test() {
        let (rules, mut wm) = setup("(p r (lo ^v <x>) (hi ^v > <x>) --> (remove 1))");
        let mut rete = Rete::new(&rules, &wm);
        apply_insert(&mut rete, &mut wm, WmeData::new("lo").with("v", 3i64));
        apply_insert(&mut rete, &mut wm, WmeData::new("hi").with("v", 5i64));
        assert_eq!(rete.conflict_set().len(), 1);
        apply_insert(&mut rete, &mut wm, WmeData::new("hi").with("v", 2i64));
        assert_eq!(rete.conflict_set().len(), 1, "2 > 3 is false");
    }

    #[test]
    fn intra_ce_variable_consistency() {
        let (rules, mut wm) = setup("(p r (pair ^l <v> ^r <v>) --> (remove 1))");
        let mut rete = Rete::new(&rules, &wm);
        apply_insert(
            &mut rete,
            &mut wm,
            WmeData::new("pair").with("l", 1i64).with("r", 2i64),
        );
        assert!(rete.conflict_set().is_empty());
        apply_insert(
            &mut rete,
            &mut wm,
            WmeData::new("pair").with("l", 7i64).with("r", 7i64),
        );
        assert_eq!(rete.conflict_set().len(), 1);
    }

    #[test]
    fn negation_blocks_and_unblocks() {
        let (rules, mut wm) = setup("(p r (go) -(hold) --> (remove 1))");
        let mut rete = Rete::new(&rules, &wm);
        let _go = apply_insert(&mut rete, &mut wm, WmeData::new("go"));
        assert_eq!(rete.conflict_set().len(), 1);
        let hold = apply_insert(&mut rete, &mut wm, WmeData::new("hold"));
        assert!(rete.conflict_set().is_empty(), "hold blocks the rule");
        apply_remove(&mut rete, &mut wm, hold);
        assert_eq!(rete.conflict_set().len(), 1, "retraction unblocks");
    }

    #[test]
    fn negation_with_variable_from_earlier_ce() {
        let (rules, mut wm) = setup("(p r (job ^id <j>) -(lock ^job <j>) --> (remove 1))");
        let mut rete = Rete::new(&rules, &wm);
        apply_insert(&mut rete, &mut wm, WmeData::new("job").with("id", 1i64));
        apply_insert(&mut rete, &mut wm, WmeData::new("job").with("id", 2i64));
        assert_eq!(rete.conflict_set().len(), 2);
        let l1 = apply_insert(&mut rete, &mut wm, WmeData::new("lock").with("job", 1i64));
        assert_eq!(rete.conflict_set().len(), 1, "only job 1 is blocked");
        apply_insert(&mut rete, &mut wm, WmeData::new("lock").with("job", 2i64));
        assert_eq!(rete.conflict_set().len(), 0);
        apply_remove(&mut rete, &mut wm, l1);
        assert_eq!(rete.conflict_set().len(), 1);
    }

    #[test]
    fn two_blockers_require_both_retractions() {
        let (rules, mut wm) = setup("(p r (go) -(hold) --> (remove 1))");
        let mut rete = Rete::new(&rules, &wm);
        apply_insert(&mut rete, &mut wm, WmeData::new("go"));
        let h1 = apply_insert(&mut rete, &mut wm, WmeData::new("hold"));
        let h2 = apply_insert(&mut rete, &mut wm, WmeData::new("hold"));
        assert!(rete.conflict_set().is_empty());
        apply_remove(&mut rete, &mut wm, h1);
        assert!(rete.conflict_set().is_empty(), "h2 still blocks");
        apply_remove(&mut rete, &mut wm, h2);
        assert_eq!(rete.conflict_set().len(), 1);
    }

    #[test]
    fn removal_cascades_through_joins() {
        let (rules, mut wm) = setup("(p r (a ^k <x>) (b ^k <x>) (c ^k <x>) --> (remove 1))");
        let mut rete = Rete::new(&rules, &wm);
        let a = apply_insert(&mut rete, &mut wm, WmeData::new("a").with("k", 1i64));
        apply_insert(&mut rete, &mut wm, WmeData::new("b").with("k", 1i64));
        apply_insert(&mut rete, &mut wm, WmeData::new("c").with("k", 1i64));
        assert_eq!(rete.conflict_set().len(), 1);
        apply_remove(&mut rete, &mut wm, a);
        assert!(rete.conflict_set().is_empty());
        assert!(
            rete.live_token_timestamps().is_empty(),
            "cascade removed all partial matches"
        );
    }

    #[test]
    fn modify_retimestamps_instantiation() {
        let (rules, mut wm) = setup("(p r (c ^n > 0) --> (remove 1))");
        let mut rete = Rete::new(&rules, &wm);
        let id = apply_insert(&mut rete, &mut wm, WmeData::new("c").with("n", 1i64));
        let key_before = rete.conflict_set().iter().next().unwrap().key();
        let mut d = DeltaSet::new();
        d.modify(id, [(Atom::from("n"), Value::Int(2))]);
        let changes = wm.apply(&d).unwrap();
        rete.apply(&changes);
        assert_eq!(rete.conflict_set().len(), 1);
        let key_after = rete.conflict_set().iter().next().unwrap().key();
        assert_ne!(
            key_before, key_after,
            "fresh timestamp → fresh instantiation"
        );
    }

    #[test]
    fn alpha_and_beta_sharing_across_rules() {
        let (rules, wm) = setup(
            "(p r1 (a ^k <x>) (b ^k <x>) --> (remove 1))
             (p r2 (a ^k <x>) (b ^k <x>) --> (remove 2))",
        );
        let rete = Rete::new(&rules, &wm);
        let stats = rete.stats();
        assert_eq!(stats.alpha_memories, 2, "a and b shared across rules");
        assert_eq!(
            stats.join_nodes, 2,
            "join chain shared; production nodes differ"
        );
        assert_eq!(stats.production_nodes, 2);
    }

    #[test]
    fn shared_subnetwork_activates_late_added_production() {
        // r2 compiled after WMEs exist? Here: rules compiled first, but
        // r2 shares r1's join chain; both must fire.
        let (rules, mut wm) = setup(
            "(p r1 (a ^k <x>) (b ^k <x>) --> (remove 1))
             (p r2 (a ^k <x>) (b ^k <x>) --> (remove 2))",
        );
        let mut rete = Rete::new(&rules, &wm);
        apply_insert(&mut rete, &mut wm, WmeData::new("a").with("k", 1i64));
        apply_insert(&mut rete, &mut wm, WmeData::new("b").with("k", 1i64));
        assert_eq!(rete.conflict_set().len(), 2);
    }

    #[test]
    fn initial_working_memory_is_matched() {
        let rules = RuleSet::parse("(p r (x) (y) --> (remove 1))").unwrap();
        let mut wm = WorkingMemory::new();
        wm.insert(WmeData::new("x"));
        wm.insert(WmeData::new("y"));
        wm.insert(WmeData::new("y"));
        let rete = Rete::new(&rules, &wm);
        assert_eq!(rete.conflict_set().len(), 2);
    }

    #[test]
    fn bindings_are_extracted() {
        let (rules, mut wm) =
            setup("(p r (job ^id <j> ^cost <c>) --> (make log ^job <j> ^was <c>))");
        let mut rete = Rete::new(&rules, &wm);
        apply_insert(
            &mut rete,
            &mut wm,
            WmeData::new("job").with("id", 7i64).with("cost", 3i64),
        );
        let inst = rete.conflict_set().iter().next().unwrap();
        assert_eq!(inst.bindings().get("j"), Some(&Value::Int(7)));
        assert_eq!(inst.bindings().get("c"), Some(&Value::Int(3)));
        assert_eq!(inst.wmes().count(), 1);
    }

    #[test]
    fn negated_ce_does_not_contribute_wmes() {
        let (rules, mut wm) = setup("(p r (go ^id <g>) -(hold) --> (remove 1))");
        let mut rete = Rete::new(&rules, &wm);
        apply_insert(&mut rete, &mut wm, WmeData::new("go").with("id", 4i64));
        let inst = rete.conflict_set().iter().next().unwrap();
        let wmes: Vec<&Wme> = inst.wmes().collect();
        assert_eq!(wmes.len(), 1);
        assert_eq!(wmes[0].class().as_str(), "go");
    }

    #[test]
    fn three_way_join_with_negation_in_middle() {
        let (rules, mut wm) = setup("(p r (a ^k <x>) -(veto ^k <x>) (b ^k <x>) --> (remove 1))");
        let mut rete = Rete::new(&rules, &wm);
        apply_insert(&mut rete, &mut wm, WmeData::new("a").with("k", 1i64));
        apply_insert(&mut rete, &mut wm, WmeData::new("b").with("k", 1i64));
        assert_eq!(rete.conflict_set().len(), 1);
        let v = apply_insert(&mut rete, &mut wm, WmeData::new("veto").with("k", 1i64));
        assert!(rete.conflict_set().is_empty());
        apply_remove(&mut rete, &mut wm, v);
        assert_eq!(rete.conflict_set().len(), 1);
    }

    #[test]
    fn consecutive_negations() {
        let (rules, mut wm) =
            setup("(p r (go ^k <x>) -(hold ^k <x>) -(veto ^k <x>) --> (remove 1))");
        let mut rete = Rete::new(&rules, &wm);
        apply_insert(&mut rete, &mut wm, WmeData::new("go").with("k", 1i64));
        assert_eq!(rete.conflict_set().len(), 1);
        let h = apply_insert(&mut rete, &mut wm, WmeData::new("hold").with("k", 1i64));
        assert!(rete.conflict_set().is_empty());
        let v = apply_insert(&mut rete, &mut wm, WmeData::new("veto").with("k", 1i64));
        apply_remove(&mut rete, &mut wm, h);
        assert!(
            rete.conflict_set().is_empty(),
            "second negation still blocks"
        );
        apply_remove(&mut rete, &mut wm, v);
        assert_eq!(rete.conflict_set().len(), 1);
        // Re-block through the second negation only.
        apply_insert(&mut rete, &mut wm, WmeData::new("veto").with("k", 1i64));
        assert!(rete.conflict_set().is_empty());
    }

    #[test]
    fn disjunction_filters_in_alpha_network() {
        let (rules, mut wm) = setup("(p r (job ^state << open pending >>) --> (remove 1))");
        let mut rete = Rete::new(&rules, &wm);
        apply_insert(
            &mut rete,
            &mut wm,
            WmeData::new("job").with("state", "open"),
        );
        apply_insert(
            &mut rete,
            &mut wm,
            WmeData::new("job").with("state", "pending"),
        );
        apply_insert(
            &mut rete,
            &mut wm,
            WmeData::new("job").with("state", "closed"),
        );
        assert_eq!(rete.conflict_set().len(), 2);
    }

    #[test]
    fn equality_joins_are_indexed() {
        let (rules, mut wm) = setup("(p r (a ^k <x>) (b ^k <x>) --> (remove 1))");
        let mut rete = Rete::new(&rules, &wm);
        assert_eq!(rete.stats().indexed_joins, 1, "second CE joins on <x>");
        // Scale: many distinct keys, each joining exactly once.
        for k in 0..50i64 {
            apply_insert(&mut rete, &mut wm, WmeData::new("a").with("k", k));
        }
        for k in 0..50i64 {
            apply_insert(&mut rete, &mut wm, WmeData::new("b").with("k", k));
        }
        assert_eq!(rete.conflict_set().len(), 50);
        // Retract half the `a`s; their joins disappear exactly.
        let ids: Vec<WmeId> = wm.class_iter("a").map(|w| w.id).take(25).collect();
        for id in ids {
            apply_remove(&mut rete, &mut wm, id);
        }
        assert_eq!(rete.conflict_set().len(), 25);
        assert_eq!(
            rete.live_token_timestamps().len(),
            25 + 25,
            "25 a-tokens + 25 join tokens"
        );
    }

    #[test]
    fn indexed_join_respects_numeric_coercion() {
        // Int 2 on one side, Float 2.0 on the other: loose equality says
        // they join; the normalised hash keys must agree.
        let (rules, mut wm) = setup("(p r (a ^k <x>) (b ^k <x>) --> (remove 1))");
        let mut rete = Rete::new(&rules, &wm);
        apply_insert(&mut rete, &mut wm, WmeData::new("a").with("k", 2i64));
        apply_insert(&mut rete, &mut wm, WmeData::new("b").with("k", 2.0f64));
        assert_eq!(rete.conflict_set().len(), 1, "Int(2) joins Float(2.0)");
        apply_insert(&mut rete, &mut wm, WmeData::new("b").with("k", 2.5f64));
        assert_eq!(rete.conflict_set().len(), 1, "2.5 does not join 2");
    }

    #[test]
    fn ordering_only_joins_stay_unindexed_but_work() {
        let (rules, mut wm) = setup("(p r (lo ^v <x>) (hi ^v > <x>) --> (remove 1))");
        let mut rete = Rete::new(&rules, &wm);
        assert_eq!(rete.stats().indexed_joins, 0, "no equality test to index");
        apply_insert(&mut rete, &mut wm, WmeData::new("lo").with("v", 1i64));
        apply_insert(&mut rete, &mut wm, WmeData::new("hi").with("v", 2i64));
        assert_eq!(rete.conflict_set().len(), 1);
    }

    #[test]
    fn stats_track_activations() {
        let (rules, mut wm) = setup("(p r (a) (b) --> (remove 1))");
        let mut rete = Rete::new(&rules, &wm);
        apply_insert(&mut rete, &mut wm, WmeData::new("a"));
        apply_insert(&mut rete, &mut wm, WmeData::new("b"));
        let s = rete.stats();
        assert!(s.right_activations >= 2);
        assert!(s.tokens > 0);
    }
}
