"""Word lattices: file IO, search, posteriors, pruning, and rescoring.

A lattice is a DAG with a single initial and a single final node.  Nodes
carry times; arcs carry a surface word plus acoustic and language-model
scores, both natural-log.  A path scores ac_scale * sum(acoustic) +
lm_scale * sum(lm) over its arcs.

Rescoring replaces arc lm scores with a combination of the old score and a
recurrent model's word probability.  Exact rescoring would need one hidden
state per distinct path prefix, so prefixes are merged when they agree on
their last n-1 words, keeping the hidden state of the best-scoring arrival.
A model that also reads succeeding words gets states extended with the
pending window of the next k words; a state is only continued along arcs
that realize the words it promised, and the output lattice expands to keep
those promises distinct.

Rescoring relaxes the nodes one by one in topological order and batches
model work over frontiers.  A state is one record per (node, history,
window) key, updated in place: an arrival that improves it only records
the state it came from and the word it took.  A node is ready once all of
its predecessors have relaxed.  When the walk reaches a node whose model
work is not done, that work is done for every ready node at once, through
one memo fill per kind of row: each state interns its word sequence as
one int, (parent sequence id, word id) -> sequence id, and the hidden
vectors of the sequences the cache lacks come from one advance call on
their parents' vectors; then the transitions (state, arc, window) are
collected in relaxation order, and the distributions of the (sequence id,
window) keys the cache lacks come from one output_dist call.  States hold
no vectors: every vector and distribution is read from the cache, where
the empty sequence's vector sits under id -1.  Each node's transitions
then relax in that order with a strict comparison, as a per-arc loop
would.  The model's stacked calls are row exact (a row's bytes never
depend on the other rows of its batch), so the output depends neither on
how rows were batched nor on whether a cache was used.  Without a cache,
one cache for the call alone still shares vectors within the lattice; a
cache passed in is bounded (CACHE_ENTRIES) and dropped whole between
lattices once it outgrows the bound.  A pass that expands a lattice into
more than MAX_STATES states fails with a LatticeError rather than exhaust
memory.

States are numbered as the walk reaches their nodes, so the transitions
come out in (start, arc, end) order with every arc running from a lower to
a higher id, and the output lattice is built already indexed: its
adjacency, its endpoints and the identity order as its topological order,
exactly what Lattice.finish would derive.
"""

import heapq
import math
from dataclasses import dataclass

import numpy as np

from . import interpolate, models
from .corpus import DataError, bad_score, read_text, write_text
from .evaluate import ordered_sum

NEG_INF = float("-inf")

# incoming lm scores are floored here before log-linear mixing, so a path a
# previous pass killed can still be revived by the new model
LM_FLOOR = math.log(1e-12)


class LatticeError(DataError):
    pass


class Node:
    __slots__ = ("id", "time")

    def __init__(self, id, time):
        self.id = id
        self.time = time


class Arc:
    __slots__ = ("id", "start", "end", "word", "ac", "lm")

    def __init__(self, id, start, end, word, ac=0.0, lm=0.0):
        self.id = id
        self.start = start
        self.end = end
        self.word = word
        self.ac = ac
        self.lm = lm


class Lattice:
    def __init__(self, nodes, arcs):
        self.nodes = nodes
        self.arcs = arcs
        self.out_arcs = None
        self.in_arcs = None
        self.initial = None
        self.final = None
        self.topo = None

    def finish(self):
        """Build adjacency, locate the endpoints, and validate structure."""
        n = len(self.nodes)
        if not self.arcs:
            raise LatticeError("lattice has no arcs")
        for i, nd in enumerate(self.nodes):
            if nd.id != i:
                raise LatticeError("node ids not consecutive from 0")
        for i, a in enumerate(self.arcs):
            if a.id != i:
                raise LatticeError("arc ids not consecutive from 0")
            if not 0 <= a.start < n or not 0 <= a.end < n:
                raise LatticeError("arc %d endpoint out of range" % a.id)
            if a.start == a.end:
                raise LatticeError("arc %d is a self loop" % a.id)
        self.out_arcs = [[] for _ in range(n)]
        self.in_arcs = [[] for _ in range(n)]
        for a in self.arcs:
            self.out_arcs[a.start].append(a.id)
            self.in_arcs[a.end].append(a.id)
        starts = [i for i in range(n) if not self.in_arcs[i]]
        ends = [i for i in range(n) if not self.out_arcs[i]]
        if len(starts) != 1:
            raise LatticeError("expected one initial node, found %d" % len(starts))
        if len(ends) != 1:
            raise LatticeError("expected one final node, found %d" % len(ends))
        self.initial, self.final = starts[0], ends[0]
        # Kahn's algorithm; a heap keeps the order deterministic
        indeg = [len(self.in_arcs[i]) for i in range(n)]
        ready = [i for i in range(n) if indeg[i] == 0]
        heapq.heapify(ready)
        topo = []
        while ready:
            u = heapq.heappop(ready)
            topo.append(u)
            for aid in self.out_arcs[u]:
                v = self.arcs[aid].end
                indeg[v] -= 1
                if indeg[v] == 0:
                    heapq.heappush(ready, v)
        if len(topo) != n:
            raise LatticeError("lattice contains a cycle")
        self.topo = topo
        for name, frontier, step in (
                ("unreachable", [self.initial], self.out_arcs),
                ("cannot reach the final node", [self.final], self.in_arcs)):
            seen = set(frontier)
            while frontier:
                u = frontier.pop()
                for aid in step[u]:
                    a = self.arcs[aid]
                    v = a.end if step is self.out_arcs else a.start
                    if v not in seen:
                        seen.add(v)
                        frontier.append(v)
            if len(seen) != n:
                missing = min(set(range(n)) - seen)
                raise LatticeError("node %d %s" % (missing, name))
        for a in self.arcs:
            if self.nodes[a.end].time + 1e-9 < self.nodes[a.start].time:
                raise LatticeError("arc %d runs backwards in time" % a.id)
        return self


# ---- SLF subset IO ----

def _parse_int(fields, key, line):
    try:
        return int(fields[key])
    except ValueError:
        raise LatticeError("field %s is not an integer: %r" % (key, fields[key]), line)


def _parse_float(fields, key, line, default=None):
    if key not in fields:
        if default is None:
            raise LatticeError("missing field %s" % key, line)
        return default
    try:
        value = float(fields[key])
    except ValueError:
        raise LatticeError("field %s is not a number: %r" % (key, fields[key]), line)
    if bad_score(value):
        raise LatticeError("field %s is not finite: %r" % (key, fields[key]), line)
    return value


def parse_slf(text):
    """Parse the lattice subset: a counts line N=.. L=.., node lines
    I=.. t=.., and arc lines J=.. S=.. E=.. W=.. a=.. l=..  Fields on a line
    may come in any order; blank lines and # comments are skipped.  NaN
    and +inf in a, l or t are rejected; -inf is kept, since an lm score of
    -inf is floored at LM_FLOOR and an acoustic one ranks its path last."""
    n_decl = l_decl = None
    node_rows = {}
    arc_rows = {}
    for line_no, raw in enumerate(text.splitlines(), 1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        fields = {}
        for tok in stripped.split():
            if "=" not in tok:
                raise LatticeError("expected key=value, got %r" % tok, line_no)
            key, val = tok.split("=", 1)
            if key in fields:
                raise LatticeError("duplicate field %s" % key, line_no)
            fields[key] = val
        if "J" in fields:
            if n_decl is None:
                raise LatticeError("arc line before the N=/L= counts line", line_no)
            j = _parse_int(fields, "J", line_no)
            if j in arc_rows:
                raise LatticeError("duplicate arc id %d" % j, line_no)
            for key in ("S", "E", "W"):
                if key not in fields:
                    raise LatticeError("missing field %s" % key, line_no)
            s = _parse_int(fields, "S", line_no)
            e = _parse_int(fields, "E", line_no)
            if not 0 <= s < n_decl or not 0 <= e < n_decl:
                raise LatticeError("arc endpoint out of range", line_no)
            ac = _parse_float(fields, "a", line_no, default=0.0)
            lm = _parse_float(fields, "l", line_no, default=0.0)
            arc_rows[j] = (s, e, fields["W"], ac, lm)
        elif "I" in fields:
            if n_decl is None:
                raise LatticeError("node line before the N=/L= counts line", line_no)
            i = _parse_int(fields, "I", line_no)
            if i in node_rows:
                raise LatticeError("duplicate node id %d" % i, line_no)
            if not 0 <= i < n_decl:
                raise LatticeError("node id %d out of range" % i, line_no)
            node_rows[i] = _parse_float(fields, "t", line_no)
        elif "N" in fields and "L" in fields:
            if n_decl is not None:
                raise LatticeError("second N=/L= counts line", line_no)
            n_decl = _parse_int(fields, "N", line_no)
            l_decl = _parse_int(fields, "L", line_no)
        elif "VERSION" in fields or "UTTERANCE" in fields:
            continue
        else:
            raise LatticeError("unrecognized line: %r" % stripped, line_no)
    if n_decl is None:
        raise LatticeError("missing N=/L= counts line")
    if len(node_rows) != n_decl:
        raise LatticeError("declared %d nodes, found %d" % (n_decl, len(node_rows)))
    if len(arc_rows) != l_decl:
        raise LatticeError("declared %d arcs, found %d" % (l_decl, len(arc_rows)))
    nodes = [Node(i, node_rows[i]) for i in range(n_decl)]
    arcs = [Arc(j, *arc_rows[j]) for j in range(l_decl)]
    return Lattice(nodes, arcs).finish()


def write_slf(lat):
    out = ["VERSION=1.0", "N=%d\tL=%d" % (len(lat.nodes), len(lat.arcs))]
    for nd in lat.nodes:
        out.append("I=%d\tt=%.2f" % (nd.id, nd.time))
    for a in lat.arcs:
        out.append("J=%d\tS=%d\tE=%d\tW=%s\ta=%.6f\tl=%.6f"
                   % (a.id, a.start, a.end, a.word, a.ac, a.lm))
    return "\n".join(out) + "\n"


def load_slf(path):
    text = read_text(path)
    try:
        return parse_slf(text)
    except LatticeError as e:
        raise e.in_file(path) from None


def save_slf(lat, path):
    write_text(path, write_slf(lat))


# ---- search ----

@dataclass
class Hypothesis:
    words: list
    arc_ids: tuple
    ac: float
    lm: float
    total: float


def _arc_weight(arc, ac_scale, lm_scale):
    return ac_scale * arc.ac + lm_scale * arc.lm


def _make_hypothesis(lat, arc_ids, ac_scale, lm_scale):
    arcs = [lat.arcs[aid] for aid in arc_ids]
    ac = ordered_sum(a.ac for a in arcs)
    lm = ordered_sum(a.lm for a in arcs)
    return Hypothesis([a.word for a in arcs], tuple(arc_ids), ac, lm,
                      ac_scale * ac + lm_scale * lm)


def best_path(lat, ac_scale=1.0, lm_scale=1.0):
    """Highest-scoring path.  Arcs relax in ascending id order with a strict
    comparison, so ties resolve the same way every run."""
    score = {lat.initial: 0.0}
    back = {}
    for u in lat.topo:
        if u not in score:
            continue
        for aid in lat.out_arcs[u]:
            a = lat.arcs[aid]
            s = score[u] + _arc_weight(a, ac_scale, lm_scale)
            if a.end not in score or s > score[a.end]:
                score[a.end] = s
                back[a.end] = aid
    arc_ids = []
    u = lat.final
    while u != lat.initial:
        aid = back[u]
        arc_ids.append(aid)
        u = lat.arcs[aid].start
    arc_ids.reverse()
    return _make_hypothesis(lat, arc_ids, ac_scale, lm_scale)


def nbest(lat, n, ac_scale=1.0, lm_scale=1.0):
    """Best-first search for the top n word sequences.  The cost-to-go is the
    exact best completion score, so hypotheses come out in true score order;
    duplicate word sequences are dropped; ties order by arc-id sequence."""
    if n <= 0:
        return []
    togo = {lat.final: 0.0}
    for u in reversed(lat.topo):
        if u == lat.final:
            continue
        best = NEG_INF
        for aid in lat.out_arcs[u]:
            a = lat.arcs[aid]
            best = max(best, _arc_weight(a, ac_scale, lm_scale) + togo[a.end])
        togo[u] = best
    heap = [(-togo[lat.initial], (), lat.initial, 0.0)]
    seen = set()
    out = []
    while heap and len(out) < n:
        neg_f, arc_ids, u, g = heapq.heappop(heap)
        if u == lat.final:
            words = tuple(lat.arcs[aid].word for aid in arc_ids)
            if words not in seen:
                seen.add(words)
                out.append(_make_hypothesis(lat, list(arc_ids), ac_scale, lm_scale))
            continue
        for aid in lat.out_arcs[u]:
            a = lat.arcs[aid]
            g2 = g + _arc_weight(a, ac_scale, lm_scale)
            heapq.heappush(heap, (-(g2 + togo[a.end]), arc_ids + (aid,), a.end, g2))
    return out


def write_nbest(hyps, path):
    write_text(path, "".join("%.6f\t%.6f\t%.6f\t%s\n" % (h.total, h.ac, h.lm, " ".join(h.words))
                             for h in hyps))


def read_nbest(path):
    """Hypotheses of an n-best file: tab-separated total, acoustic and lm
    scores, then the words.  NaN and +inf scores are rejected, -inf kept as
    in parse_slf; errors name the file and the line."""
    hyps = []
    for line_no, line in enumerate(read_text(path).split("\n"), 1):
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 4:
            raise LatticeError("expected total, acoustic, lm, words", line_no, path)
        try:
            total, ac, lm = (float(p) for p in parts[:3])
        except ValueError:
            raise LatticeError("bad score field", line_no, path)
        if any(map(bad_score, (total, ac, lm))):
            raise LatticeError("score is not finite", line_no, path)
        hyps.append(Hypothesis(parts[3].split(), (), ac, lm, total))
    return hyps


def enumerate_paths(lat, limit=100000):
    """All complete paths as arc-id tuples, in depth-first arc-id order."""
    out = []
    stack = [(lat.initial, ())]
    while stack:
        u, arc_ids = stack.pop()
        if u == lat.final:
            out.append(arc_ids)
            continue
        for aid in reversed(lat.out_arcs[u]):
            stack.append((lat.arcs[aid].end, arc_ids + (aid,)))
        if len(out) > limit:
            raise LatticeError("more than %d paths" % limit)
    return out


def path_words(lat, arc_ids):
    return [lat.arcs[aid].word for aid in arc_ids]


# ---- posteriors and pruning ----

def _logadd(a, b):
    if a == NEG_INF:
        return b
    if b == NEG_INF:
        return a
    if a < b:
        a, b = b, a
    return a + math.log1p(math.exp(b - a))


def _alpha_beta(lat, ac_scale, lm_scale):
    alpha = [NEG_INF] * len(lat.nodes)
    beta = [NEG_INF] * len(lat.nodes)
    alpha[lat.initial] = 0.0
    for u in lat.topo:
        for aid in lat.out_arcs[u]:
            a = lat.arcs[aid]
            alpha[a.end] = _logadd(alpha[a.end],
                                   alpha[u] + _arc_weight(a, ac_scale, lm_scale))
    beta[lat.final] = 0.0
    for u in reversed(lat.topo):
        for aid in lat.out_arcs[u]:
            a = lat.arcs[aid]
            beta[u] = _logadd(beta[u],
                              _arc_weight(a, ac_scale, lm_scale) + beta[a.end])
    return alpha, beta, alpha[lat.final]


def arc_posteriors(lat, ac_scale=1.0, lm_scale=1.0):
    """Per-arc posterior probabilities from the forward-backward sums,
    indexed by arc id, plus the total path mass.  The posteriors of the arcs
    crossing any topological cut sum to one."""
    alpha, beta, log_z = _alpha_beta(lat, ac_scale, lm_scale)
    post = [math.exp(alpha[a.start] + _arc_weight(a, ac_scale, lm_scale)
                     + beta[a.end] - log_z) for a in lat.arcs]
    return post, log_z


def prune(lat, beam, ac_scale=1.0, lm_scale=1.0):
    """Drop arcs whose log posterior falls more than beam below the best one.
    The best path always survives, then ids are renumbered compactly in the
    original order."""
    if not beam >= 0:    # NaN too
        raise ValueError("beam must be nonnegative")
    alpha, beta, log_z = _alpha_beta(lat, ac_scale, lm_scale)
    log_post = [alpha[a.start] + _arc_weight(a, ac_scale, lm_scale)
                + beta[a.end] - log_z for a in lat.arcs]
    cutoff = max(log_post) - beam
    keep = {a.id for a in lat.arcs if log_post[a.id] >= cutoff}
    keep.update(best_path(lat, ac_scale, lm_scale).arc_ids)
    # drop arcs stranded by the cut: both endpoints must still connect
    fwd = {lat.initial}
    for u in lat.topo:
        if u not in fwd:
            continue
        for aid in lat.out_arcs[u]:
            if aid in keep:
                fwd.add(lat.arcs[aid].end)
    bwd = {lat.final}
    for u in reversed(lat.topo):
        if u not in bwd:
            continue
        for aid in lat.in_arcs[u]:
            if aid in keep:
                bwd.add(lat.arcs[aid].start)
    live = fwd & bwd
    arcs_kept = [a for a in lat.arcs
                 if a.id in keep and a.start in live and a.end in live]
    node_ids = sorted({a.start for a in arcs_kept} | {a.end for a in arcs_kept})
    node_map = {old: new for new, old in enumerate(node_ids)}
    nodes = [Node(node_map[i], lat.nodes[i].time) for i in node_ids]
    arcs = [Arc(j, node_map[a.start], node_map[a.end], a.word, a.ac, a.lm)
            for j, a in enumerate(arcs_kept)]
    return Lattice(nodes, arcs).finish()


# ---- rescoring ----

# A cache holding more hidden vectors and distributions than this is
# dropped when the next lattice starts.  Most hits come from within one
# lattice: over the benchmark's 720 rescore lattices (seed 1) and criterion
# 10's 200 sausages, every hit ratio at this bound stayed within 0.045 of
# an unbounded cache's, where 2,000 lost up to 0.08 of the su hidden-state
# hits for 5 MB less peak memory, and an unbounded cache grows with every
# lattice (137k entries after one benchmark pass).
CACHE_ENTRIES = 8000

# states one rescoring pass may create before it gives up on the lattice:
# merged states grow with branching^(n_hist - 1) and the su windows, so a
# dense lattice with a long history could otherwise exhaust memory.  The
# benchmark's 720 rescore lattices (seed 1) peak at 1,388 states per pass.
MAX_STATES = 200000


class ProbCache:
    """Memo for hidden states and output distributions during rescoring.
    Word sequences are interned: `seqs` maps (parent sequence id, word id)
    to a sequence id, so a sequence of any length is one int.  Hidden
    vectors are keyed by sequence id, distributions by (sequence id,
    succeeding-word window).  A hit returns the identical array it stored.

    The memo is bounded.  A rescoring call starts at a lattice boundary,
    where no sequence id is in use; if the cache then holds more than
    CACHE_ENTRIES vectors and distributions, it drops its intern table and
    both memos together.  So it never holds more than the bound plus one
    lattice's entries, however many lattices pass through it.  The hit and
    miss counters keep counting across a drop.

    Rescoring holds every vector and distribution it uses here, the empty
    sequence's vector too (id -1, stored as each call starts), and fills
    both memos the same way: per frontier of the walk (the nodes whose
    predecessors have all relaxed), the keys the memo lacks are computed
    in one model call.  Which rows share a call depends on what the cache
    already held; the model's stacked calls are row exact (row i has the
    bytes of the call on row i alone), so a vector has the same bytes
    from a hit, a batch of misses, or an uncached run, and cached and
    uncached rescoring write the same lattices.  Hidden vectors are
    looked up once per distinct word sequence in a frontier.
    Distributions are looked up once per transition, and a key repeated
    within one frontier's call is a hit after its first miss, as in a
    one-at-a-time loop."""

    def __init__(self):
        self.h_hits = self.h_misses = 0
        self.dist_hits = self.dist_misses = 0
        self.clear()

    def clear(self):
        """Drop every entry and sequence id; the counters stay."""
        self.seqs = {}
        self.h = {}
        self.dist = {}


def _fill(memo, wanted, call):
    """Store call(vector, arg) in `memo` under every key of `wanted` that it
    lacks, where `wanted` maps each key to its (hidden vector, word id or
    window) pair; the missing keys go through one row-exact call.  Returns
    how many keys were computed."""
    todo = [key for key in wanted if key not in memo]
    if len(todo) == 1:
        # a lone row needs no batch assembly
        memo[todo[0]] = call(*wanted[todo[0]])
    elif todo:
        hs, args = zip(*map(wanted.get, todo))
        # np.stack's checks cost more than the model call on a frontier's few rows
        rows = call(np.concatenate(hs).reshape(len(todo), -1), list(args))
        memo.update(zip(todo, rows))
    return len(todo)


def _future_sets(lat, word_ids, k, pad_id):
    """For every node, the sorted k-word windows that can follow it on some
    path, padded past the final node, and the same windows grouped by their
    first k - 1 words.  With k = 0 every node has the one empty window."""
    n = len(lat.nodes)
    if not k:
        return [[()]] * n, [{(): [()]}] * n
    futures = [None] * n
    by_prefix = [None] * n
    for u in reversed(lat.topo):
        if u == lat.final:
            futs = [(pad_id,) * k]
        else:
            # an arc's word followed by the first k - 1 words of a window
            # of its end node
            futs = sorted({(word_ids[aid],) + prefix
                           for aid in lat.out_arcs[u]
                           for prefix in by_prefix[lat.arcs[aid].end]})
        groups = {}
        for f in futs:
            groups.setdefault(f[:-1], []).append(f)
        futures[u] = futs
        by_prefix[u] = groups
    return futures, by_prefix


def _trunc_hist(seq, n_hist):
    if n_hist <= 1:
        return ()
    return seq[-(n_hist - 1):]


class _State:
    """The best arrival so far at one (node, history, window) key, updated
    in place when a better one arrives: `prev` is the state it came from
    and `word` the word id of the arc it took.  Once every predecessor of
    the node has relaxed, the state gets its interned sequence id `seq`,
    which keys its hidden vector in the cache; `id` is its output node id,
    given when the walk reaches the node."""

    __slots__ = ("g", "prev", "word", "seq", "id")

    def __init__(self, g, prev, word):
        self.g = g
        self.prev = prev
        self.word = word
        self.seq = None
        self.id = None


def _rescore(lat, model, combine, n_hist, alpha, no_merge, cache,
             ac_scale, lm_scale):
    if n_hist < 1:
        raise ValueError("history length must be at least 1")
    if cache is None:
        # a cache for this call alone, so vectors are still shared within it
        cache = ProbCache()
    elif len(cache.h) + len(cache.dist) > CACHE_ENTRIES:
        cache.clear()
    seqs = cache.seqs
    vocab = model.vocab
    k = model.k
    final = lat.final
    # per arc: id, end node, word id, output slot, the log of the number of
    # words an out-of-shortlist slot covers, the scaled acoustic score and
    # the incoming lm score; in the shortlist the penalty is 0.0, whose
    # subtraction changes no value, so every word score has the bytes
    # word_logprob_from_dist gives
    arcs = []
    for a in lat.arcs:
        w = vocab.id_of(a.word)
        pen = math.log(vocab.n_oos) if vocab.is_oos(w) else 0.0
        arcs.append((a.id, a.end, w, vocab.output_index(w), pen,
                     ac_scale * a.ac, a.lm))
    # the lists ascend in arc id, as finish() and this function build them
    out_arcs = [[arcs[aid] for aid in aids] for aids in lat.out_arcs]
    # a state that promised window f continues along the arcs with word
    # f[0] into the windows that start with f[1:]
    futures, by_prefix = _future_sets(lat, [arc[2] for arc in arcs], k, vocab.pad)
    by_word = []
    if k:
        for node_arcs in out_arcs:
            groups = {}
            for arc in node_arcs:
                groups.setdefault(arc[2], []).append(arc)
            by_word.append(groups)

    # the empty sequence, whose vector the sentence-begin token advances,
    # keeps it in the cache under id -1, which is never interned
    hidden, dists = cache.h, cache.dist
    hidden[-1] = model.zero_state()
    root = _State(None, None, None)
    root.seq = -1
    first = (vocab.sent_begin,)
    hist0 = first if no_merge else _trunc_hist(first, n_hist)
    final_key = (None, None)
    states = [dict() for _ in lat.nodes]
    states[lat.initial][(hist0, None)] = _State(0.0, root, vocab.sent_begin)
    created = 1
    remaining = [len(aids) for aids in lat.in_arcs]
    ready = [lat.initial]   # nodes whose predecessors have all relaxed
    pending = {}            # node -> (sorted states, transitions)
    origin = []
    transitions = []

    def output(h, window):
        return model.output_dist(h, window if k else None, alpha)

    for u in lat.topo:
        # the final node has no arcs to follow, so its state needs no vector
        if u == final:
            continue
        if u not in pending:
            # model work for the whole ready frontier: one advance call for
            # the word sequences its states end, then every transition
            # (state, arc, window) of its nodes in relaxation order, and
            # one output_dist call for their distributions
            frontier = [(v, sorted(states[v].items())) for v in ready]
            ready = []
            wanted = {}
            for _, here in frontier:
                for _, st in here:
                    st.seq = seqs.setdefault((st.prev.seq, st.word), len(seqs))
                    wanted[st.seq] = (hidden[st.prev.seq], st.word)
            n = _fill(hidden, wanted, model.advance)
            cache.h_hits += len(wanted) - n
            cache.h_misses += n
            wanted = {}
            n_moves = 0
            for v, here in frontier:
                moves = []
                for (hist, fut), st in here:
                    h = hidden[st.seq]
                    if fut:
                        state_arcs = by_word[v].get(fut[0], ())
                        tail = fut[1:]
                    else:
                        state_arcs = out_arcs[v]
                    for arc in state_arcs:
                        end = arc[1]
                        # the last n_hist - 1 words of the sequence, or all
                        # of them without merging
                        hist_v = hist + (arc[2],)
                        if not no_merge:
                            hist_v = _trunc_hist(hist_v, n_hist)
                        cands = by_prefix[end].get(tail, ()) if fut else futures[end]
                        for fut_v in cands:
                            dkey = (st.seq, fut_v)
                            wanted[dkey] = (h, fut_v)
                            skey = final_key if end == final else (hist_v, fut_v)
                            moves.append((st, arc, dkey, skey))
                n_moves += len(moves)
                pending[v] = (here, moves)
            n = _fill(dists, wanted, output)
            cache.dist_hits += n_moves - n
            cache.dist_misses += n
        here, moves = pending.pop(u)
        for skey, st in here:
            st.id = len(origin)
            origin.append((u,) + skey)
        for st, (aid, end, w, slot, pen, acw, old_lm), dkey, skey in moves:
            p = dists[dkey].item(slot)
            new_lm = combine(old_lm, (math.log(p) if p > 0.0 else NEG_INF) - pen)
            g = st.g + acw + lm_scale * new_lm
            dst = states[end].get(skey)
            if dst is None:
                created += 1
                if created > MAX_STATES:
                    raise LatticeError("rescoring expanded the lattice past %d states"
                                       % MAX_STATES)
                dst = states[end][skey] = _State(g, st, w)
            elif g > dst.g:
                dst.g, dst.prev, dst.word = g, st, w
            transitions.append((st, aid, dst, new_lm))
        for arc in out_arcs[u]:
            remaining[arc[1]] -= 1
            if not remaining[arc[1]]:
                ready.append(arc[1])

    states[final][final_key].id = len(origin)
    origin.append((final,) + final_key)
    # Ids follow the walk, a node's states are numbered in the order its
    # transitions were generated, and the windows of one (state, arc) ascend
    # with their end states' ids, so the transitions are already in (start,
    # arc, end) order, every arc runs from a lower to a higher id, and the
    # identity is the topological order finish() would find.
    n = len(origin)
    nodes = [Node(i, lat.nodes[o[0]].time) for i, o in enumerate(origin)]
    out = Lattice(nodes, [])
    out.out_arcs = [[] for _ in range(n)]
    out.in_arcs = [[] for _ in range(n)]
    for j, (st, aid, dst, new_lm) in enumerate(transitions):
        a = lat.arcs[aid]
        out.arcs.append(Arc(j, st.id, dst.id, a.word, a.ac, new_lm))
        out.out_arcs[st.id].append(j)
        out.in_arcs[dst.id].append(j)
    out.initial, out.final = 0, n - 1
    out.topo = list(range(n))
    out.node_origin = origin
    out.arc_origin = [aid for _, aid, _, _ in transitions]
    return out


def _combine_fn(combine, lam):
    """combine(old_lm, lp): the arc's new lm score under rule `combine`."""
    if combine == "linear":
        return lambda old_lm, lp: interpolate.linear_logprob(old_lm, lp, lam)
    if combine == "loglinear":
        return lambda old_lm, lp: interpolate.loglinear_score(max(old_lm, LM_FLOOR), lp, lam)
    raise ValueError("unknown combine rule %r" % (combine,))


def rescore_lattice_uni(lat, model, n_hist=3, lam=0.75, no_merge=False,
                        cache=None, ac_scale=1.0, lm_scale=1.0,
                        combine="linear"):
    """Rescore with a left-to-right model, mixing its word probability
    linearly with the existing arc probability under weight lam.  States
    merge on the last n_hist - 1 words; no_merge keeps full histories."""
    return _rescore(lat, model, _combine_fn(combine, lam), n_hist, 1.0,
                    no_merge, cache, ac_scale, lm_scale)


def rescore_lattice_su(lat, model, n_hist=3, lam=0.3, alpha=0.7,
                       no_merge=False, cache=None, ac_scale=1.0, lm_scale=1.0,
                       combine="loglinear"):
    """Rescore with a succeeding-word model, mixing its smoothed log
    probability log-linearly with the existing arc score under weight lam.
    The state expansion follows the model's window size; with k=0 and the
    same combine rule this reduces exactly to rescore_lattice_uni."""
    return _rescore(lat, model, _combine_fn(combine, lam), n_hist, alpha,
                    no_merge, cache, ac_scale, lm_scale)


# ---- hypothesis-list rescoring ----

def rescore_nbest(hyps, lm_fn, ac_scale=1.0, lm_scale=1.0):
    """Replace each hypothesis' lm total with lm_fn(words) and re-rank.
    When lm_fn has a score_many(word_lists) method, the whole list is scored
    in one call to it; it must return one total per word list, equal to what
    lm_fn gives that list alone.  Any other callable is called once per
    hypothesis.  The sort is stable, so exact ties keep their incoming
    order."""
    score_many = getattr(lm_fn, "score_many", None)
    if score_many is not None:
        lms = score_many([h.words for h in hyps])
    else:
        lms = [lm_fn(h.words) for h in hyps]
    out = [Hypothesis(h.words, h.arc_ids, h.ac, lm, ac_scale * h.ac + lm_scale * lm)
           for h, lm in zip(hyps, lms)]
    out.sort(key=lambda h: -h.total)
    return out


class TwoStageScorer:
    """Two-stage hypothesis scorer; see make_two_stage_scorer."""

    def __init__(self, ngram, uni, su=None, config=None, alpha=0.7):
        if config is None:
            config = interpolate.InterpConfig()
        config.validate()
        self.ngram = ngram
        self.uni = uni
        self.su = su
        self.config = config
        self.alpha = alpha
        vocab = uni.vocab
        skip = {vocab.sent_begin, vocab.null, vocab.pad}
        self.candidates = [i for i in range(len(vocab.words)) if i not in skip]

    def __call__(self, words):
        return self.score_many([words])[0]

    def score_many(self, word_lists):
        """Total score of every word list, in order: the in-order sum of
        its word_scores."""
        return [ordered_sum(scores) for scores in
                self.word_scores([self.uni.vocab.encode(w) for w in word_lists])]

    def word_scores(self, seqs):
        """Per-word scores of encoded sentences (begin and end tokens
        included): one list per sentence, one score per position after the
        begin token.  Both models score the sentences through the prefix
        tries of models.prefix_tries: the recurrence steps once per depth
        and the output layer runs once per budget-sized run of depths
        (PrefixTrie.dists), its calls row exact, so a sentence scores the
        same in any set; every distinct (prefix, word, window) of a trie is
        combined once."""
        k = self.su.k if self.su is not None else 0
        out = []
        for run, trie in models.prefix_tries(seqs, k, self.uni.vocab.pad):
            out += self._trie_scores(run, trie)
        return out

    def _trie_scores(self, seqs, trie):
        """word_scores of the sentences `seqs` of one PrefixTrie `trie`."""
        uni, su = self.uni, self.su
        dists_s = trie.dists(su, self.alpha) if su is not None else [None] * len(trie.visits)
        cfg = self.config
        out = [[] for _ in seqs]
        for t, (dist_u, dist_s, visits) in enumerate(zip(trie.dists(uni), dists_s, trie.visits), 1):
            # every key below holds for this depth only
            lp_ng, scores, log_zs = {}, {}, {}

            def combined(ids, row, col, w):
                lp = lp_ng.get((row, w))
                if lp is None:
                    lp = lp_ng[(row, w)] = self.ngram.logprob(tuple(ids[:t]), w)
                lp_u = uni.word_logprob_from_dist(dist_u[row], w)
                if su is None:
                    return interpolate.linear_logprob(lp, lp_u, cfg.lambda1)
                p_s = math.exp(su.word_logprob_from_dist(dist_s[col], w))
                return interpolate.two_stage(math.exp(lp), math.exp(lp_u), p_s, cfg)

            for i, row, col in visits:
                ids = seqs[i]
                w = ids[t]
                score = scores.get((col, w))
                if score is None:
                    score = combined(ids, row, col, w)
                    if cfg.normalize_locally:
                        log_z = log_zs.get(col)
                        if log_z is None:
                            all_scores = [combined(ids, row, col, c) for c in self.candidates]
                            log_z = all_scores[0]
                            for s in all_scores[1:]:
                                log_z = _logadd(log_z, s)
                            log_zs[col] = log_z
                        score -= log_z
                    scores[(col, w)] = score
                out[i].append(score)
        return out


def make_two_stage_scorer(ngram, uni, su=None, config=None, alpha=0.7):
    """Build an lm_fn for rescore_nbest.  Per word, the n-gram and
    left-to-right probabilities mix linearly; with a succeeding-word model
    its smoothed probability then mixes in log-linearly.  With
    normalize_locally the combined score is renormalized over the candidate
    vocabulary at each position.

    The result is callable as lm_fn(words) and also offers
    score_many(word_lists), which returns the list of lm_fn(words) for
    every word list while sharing the work of common prefixes;
    lm_fn(words) is score_many([words])[0].  word_scores(encoded sentences)
    gives the per-word scores that score_many sums."""
    return TwoStageScorer(ngram, uni, su, config, alpha)
