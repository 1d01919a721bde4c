"""Bag-table dynamic programming over nice tree decompositions.

The second counting backend (DESIGN.md §9).  Where the backtracking
counter of :mod:`repro.hom.engine` explores assignments one variable at
a time — worst-case exponential in the number of source variables —
this module counts ``|hom(A, B)|`` in ``O(poly · |B|^{w+1})`` for a
source of treewidth ``w`` by sweeping a nice tree decomposition
(:mod:`repro.hom.decompose`) bottom-up:

* **leaf** — the empty partial assignment, multiplicity 1;
* **introduce v** — extend every table key by each candidate value of
  ``v`` (positional candidate sets, exactly the ones the backtracking
  counter prunes with), filtering by the facts *anchored* at this node;
* **forget v** — project ``v`` out, summing multiplicities;
* **join** — multiply tables pointwise on the shared bag (extensions
  below the two children are disjoint by the running-intersection
  property, so the product is exact).

Each fact is anchored at exactly one introduce node whose bag contains
all its terms (such a node always exists: ``make_nice`` forgets before
it introduces between adjacent bags, so any in-bag term set survives
to the introduce of its last term).  Checking a fact once suffices —
every counted assignment restricts to that node's bag — and anchoring
each fact once keeps the inner loop minimal.

The tables themselves are *packed and columnar* (DESIGN.md §12): a bag
assignment is one int key (``Σ value_i << (i · key_bits)``), candidate
values are bitset domains, and anchored binary facts are compiled into
mask filters (:class:`DPPlan` ``intro_ops``) applied per table entry
instead of per candidate value.  The packed kernel serves every
target size: past the backtracker's bitset cap its masks are merely
wide ints (on a path target, 0.11 s at 8,000 elements, where the former
tuple-keyed kernel took over 120 s; correct at 70,000 in 3.9 s).

Nullary facts, arity mismatches and isolated source elements are
handled by the same preamble the backtracking counter uses
(:func:`repro.hom.engine._plan_preamble`), so the two backends are
bit-identical by construction on everything outside the core search —
and property-tested bit-identical on the core
(``tests/test_dpcount.py``).  Disconnected sources need no special
case here: a decomposition of a disconnected Gaifman graph is a forest
chained into one tree, and the DP multiplies the components' counts
through its join/forget algebra; the engine still factors into
components *first* (canonical memoization happens per component), so
this path usually sees connected sources.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.errors import StructureError
from repro.faults.budget import active_budget, injected_exceeded
from repro.faults.inject import should_inject
from repro.obs.trace import span
from repro.structures.interned import bit_indices
from repro.structures.structure import Structure
from repro.hom.decompose import (
    FORGET,
    INTRODUCE,
    JOIN,
    LEAF,
    NiceDecomposition,
    decompose_interned,
    gaifman_graph_interned,
    make_nice,
)

# Classified introduce-node check kinds (see DPPlan.intro_ops).
PAIR, LOOP, GENERAL = 1, 2, 3

# Module-wide packed-table observability (same scoping as the intern /
# bitset counters): the largest packed bag table any DP in this
# process materialized — the number an operator compares against
# |B|^{w+1} to see how hard the tables actually got.
_DP_PACKED = {"dp_peak_entries": 0}


def dp_packed_stats():
    """Counters of the packed-DP kernel (merged into ``bitset_stats``)."""
    return dict(_DP_PACKED)


class DPPlan:
    """A compiled DP schedule for one source structure.

    Built once per source (cached on the
    :class:`~repro.hom.engine.SourcePlan`) and reused across every
    target: ``nodes`` come from the nice decomposition, ``checks[i]``
    holds the facts anchored at introduce node ``i`` as
    ``(relation, term_positions)`` pairs with positions resolved into
    the node's bag order, and ``size_histogram`` maps bag size to node
    count — all a cost model needs (`Σ count · |B|^size`).

    ``intro_ops[i]`` is the bit-parallel compilation of ``checks[i]``,
    classified once per plan (target-independent) so the packed DP
    never re-derives fact shapes inside its inner loop:

    * ``(PAIR, relation, i, j, child_pos)`` — a binary fact joining the
      introduced variable (tuple slot ``j``) to one already-keyed bag
      variable (tuple slot ``i``, at packed position ``child_pos`` of
      the *child* key): enforced by ANDing the candidate mask with the
      target's ``pair_bits(relation, i, j)`` row — no per-value test;
    * ``(LOOP, relation)`` — a binary self-loop fact on the introduced
      variable: one static AND with the target's loop mask;
    * ``(GENERAL, relation, term_positions)`` — everything else
      (arity ≥ 3, or a fact anchored here without mentioning the
      introduced variable): per-extension membership test against the
      relation's packed rows.

    Unary anchored facts are dropped outright: the preamble already
    intersects every variable's base domain with each positional
    candidate set, so a one-position membership test can never fail on
    a value that survived the preamble.
    """

    __slots__ = ("nice", "checks", "intro_ops", "width", "size_histogram")

    def __init__(self, nice: NiceDecomposition,
                 checks: Tuple[Tuple[Tuple[str, Tuple[int, ...]], ...], ...]):
        self.nice = nice
        self.checks = checks
        self.width = nice.width
        histogram: Dict[int, int] = {}
        for node in nice.nodes:
            size = len(node.order)
            histogram[size] = histogram.get(size, 0) + 1
        self.size_histogram = histogram
        intro_ops: List[tuple] = []
        for node, anchored in zip(nice.nodes, checks):
            if node.kind != INTRODUCE or not anchored:
                intro_ops.append(())
                continue
            var_pos = node.var_pos
            ops: List[tuple] = []
            for relation, term_positions in anchored:
                var_slots = [t for t, bag_pos in enumerate(term_positions)
                             if bag_pos == var_pos]
                arity = len(term_positions)
                if arity == 1:
                    continue  # folded into the base domain: see above
                if arity == 2 and len(var_slots) == 1:
                    j = var_slots[0]
                    i = 1 - j
                    other = term_positions[i]
                    child_pos = other - 1 if other > var_pos else other
                    ops.append((PAIR, relation, i, j, child_pos))
                elif arity == 2 and len(var_slots) == 2:
                    ops.append((LOOP, relation))
                else:
                    ops.append((GENERAL, relation, term_positions))
            intro_ops.append(tuple(ops))
        self.intro_ops = tuple(intro_ops)

    def __repr__(self) -> str:
        return (f"DPPlan(nodes={len(self.nice.nodes)}, "
                f"width={self.width})")


def build_dp_plan(source: Structure, plan,
                  heuristic: str = "min-fill") -> DPPlan:
    """Compile the DP schedule for ``source``.

    ``plan`` is the source's :class:`~repro.hom.engine.SourcePlan`
    (duck-typed: only ``plan.inter`` and ``plan.facts`` are read).
    The decomposition runs over the *interned* Gaifman graph — bags,
    nice-node orders and DP table keys are all dense ints — and is
    validated before use (once per source, cheap next to the DP it
    enables); every fact must find an anchor, so a heuristic bug
    raises :class:`~repro.errors.StructureError` instead of silently
    corrupting counts.
    """
    with span("plan.dp"):
        decomposition = decompose_interned(plan.inter, heuristic=heuristic)
        decomposition.validate_interned(plan.inter)
        nice = make_nice(decomposition,
                         adjacency=gaifman_graph_interned(plan.inter))
    remaining = list(enumerate(plan.facts))
    binary = [(relation, terms) for relation, terms in plan.facts
              if len(terms) == 2]
    checks: List[Tuple[Tuple[str, Tuple[int, ...]], ...]] = []
    for node in nice.nodes:
        if node.kind != INTRODUCE:
            checks.append(())
            continue
        bag = set(node.order)
        position = {term: i for i, term in enumerate(node.order)}
        anchored = []
        kept = []
        for entry in remaining:
            _, (relation, terms) = entry
            if all(term in bag for term in terms):
                anchored.append(
                    (relation, tuple(position[term] for term in terms)))
            else:
                kept.append(entry)
        remaining = kept
        # Redundant anchoring: every binary fact touching the
        # introduced variable whose terms sit in this bag is filtered
        # here too, not only at its mandatory anchor.  Filters are
        # idempotent, so re-checking is sound — and it turns the
        # product-table introduces of join-side branches (bag
        # variables re-introduced where their facts anchored in a
        # sibling branch) into constrained ones, shrinking every table
        # the join later intersects.
        seen = set(anchored)
        for relation, terms in binary:
            if node.var in terms and all(term in bag for term in terms):
                entry = (relation, tuple(position[term] for term in terms))
                if entry not in seen:
                    seen.add(entry)
                    anchored.append(entry)
        checks.append(tuple(anchored))
    if remaining:
        raise StructureError(
            f"decomposition anchored no bag for facts "
            f"{[str(relation) for _, (relation, _) in remaining]}; "
            f"invariants violated")
    return DPPlan(nice, tuple(checks))


# Resolved introduce-program tags (see _resolved_intro).  The _F
# variants are introduce nodes fused with the forget node that
# immediately consumes them: the intermediate table is never built.
_R_EMPTY, _R_FREE, _R_SINGLE, _R_DOUBLE, _R_GENERIC = 0, 1, 2, 3, 4
_R_FREE_F, _R_SINGLE_F, _R_DOUBLE_F = 5, 6, 7


class _SpreadMap(dict):
    """A spread dict returning the empty tuple on missing field values.

    Lets the sweep probe spreads by plain subscript — the same access
    pattern as the dense-list spreads used for small domains — without
    a per-entry ``.get`` method call.
    """

    __slots__ = ()

    def __missing__(self, key):
        return ()


def _as_dense(spread: dict, size: int):
    """The spread as a dense list when the probe range is small.

    List subscript beats even an int-keyed dict probe; holes hold the
    empty tuple so the sweep needs no miss branch.  Large probe ranges
    keep the ``_SpreadMap`` (same subscript protocol, sparse storage).
    """
    if size > 4096:
        return spread
    dense = [()] * size
    for field_value, values in spread.items():
        dense[field_value] = values
    return dense


def _resolved_intro(plan, index):
    """The per-(plan, target) resolved DP program.

    Returns ``(programs, decided, free_factor)``: ``decided`` short-
    circuits the whole count when the shared preamble already knows the
    answer (arity mismatch, empty base domain, ...), otherwise
    ``programs`` holds one tuple per nice node (``None`` for
    non-introduce nodes) with everything the sweep needs pre-bound:
    candidate masks folded with loop masks, pair projections resolved
    against the target, single- and double-filter cases pre-joined into
    ``field value(s) -> pre-shifted extension values`` spreads, the key
    geometry (shift/below/raise_by and the top-position flag) baked in,
    and introduce nodes fused with the forget that immediately consumes
    them.  All of it is a pure function of ``(plan, index.structure)``,
    so the entry is cached on the plan next to the base domains and the
    strategy verdicts — a warm count never re-runs the preamble.
    """
    from repro.hom.engine import _plan_preamble

    cache = plan._dp_resolved
    cache_key = index.structure
    cached = cache.get(cache_key)
    if cached is not None:
        cache.move_to_end(cache_key)
        return cached
    decided, domains, free_factor = _plan_preamble(plan, index, False)
    if decided is not None:
        entry = (None, decided, free_factor)
        cache[cache_key] = entry
        if len(cache) > plan._BASE_DOMAIN_CACHE:
            cache.popitem(last=False)
        return entry
    dp = plan.dp_plan()
    kb = index.key_bits
    nodes = dp.nice.nodes
    resolved: List[Optional[tuple]] = []
    for position, (node, anchored) in enumerate(zip(nodes, dp.intro_ops)):
        if node.kind != INTRODUCE:
            resolved.append(None)
            continue
        # Fuse with an immediately-following forget: the forget splice
        # distributes over OR of disjoint packed fields, so extension
        # values are pre-spliced here and the sweep splices each child
        # head once — the intermediate table is never materialized.
        # The general splice formula is correct even when the
        # forgotten field is topmost (the high part shifts to zero).
        splice = None
        follower = nodes[position + 1] if position + 1 < len(nodes) else None
        if follower is not None and follower.kind == FORGET \
                and follower.children == (position,):
            g_shift = follower.var_pos * kb
            g_below = (1 << g_shift) - 1
            g_above = g_shift + kb

            def splice(x, g_below=g_below, g_shift=g_shift, g_above=g_above):
                return (x & g_below) | ((x >> g_above) << g_shift)
        var_pos = node.var_pos
        shift = var_pos * kb
        below = (1 << shift) - 1
        raise_by = shift + kb
        # Introducing at the topmost bag position leaves every child
        # field in place: no key surgery per entry.
        top = var_pos == len(node.order) - 1
        candidates = domains[node.var]
        pair_filters = []
        general = []
        for op in anchored:
            tag = op[0]
            if tag == PAIR:
                pair_filters.append(
                    (index.pair_bits(op[1], op[2], op[3]), op[4] * kb))
            elif tag == LOOP:
                candidates &= index.loop_mask(op[1])
            else:  # GENERAL
                general.append((index.packed_rows(op[1]), op[2]))
        if not candidates:
            resolved.append((_R_EMPTY,))
        elif not general and not pair_filters:
            values = tuple(v << shift for v in bit_indices(candidates))
            if splice is None:
                resolved.append((_R_FREE, values,
                                 below, shift, raise_by, top))
            else:
                resolved.append((_R_FREE_F,
                                 tuple(splice(v) for v in values),
                                 below, shift, raise_by, top,
                                 g_below, g_shift, g_above))
        elif not general and len(pair_filters) == 1:
            # Pre-join the projection rows with the candidate mask:
            # field value -> pre-shifted extension values.
            fdict, f_shift = pair_filters[0]
            spread = _SpreadMap()
            for field_value, row_mask in fdict.items():
                row_mask &= candidates
                if row_mask:
                    vals = tuple(v << shift for v in bit_indices(row_mask))
                    spread[field_value] = vals if splice is None \
                        else tuple(splice(v) for v in vals)
            spread = _as_dense(spread, index.domain_size)
            if splice is None:
                resolved.append((_R_SINGLE, spread, f_shift,
                                 below, shift, raise_by, top))
            else:
                resolved.append((_R_SINGLE_F, spread, f_shift,
                                 below, shift, raise_by, top,
                                 g_below, g_shift, g_above))
        elif not general and len(pair_filters) == 2:
            # Two binary facts join the new variable to two keyed bag
            # fields (interior grid vertices): pre-join BOTH projections
            # over all field-value pairs, keyed by the packed pair
            # (v1 << key_bits) | v2 — one dict probe per child entry
            # replaces two lookups and two ANDs.
            (fd1, s1), (fd2, s2) = pair_filters
            spread = _SpreadMap()
            for v1, m1 in fd1.items():
                m1 &= candidates
                if not m1:
                    continue
                for v2, m2 in fd2.items():
                    joint = m1 & m2
                    if joint:
                        vals = tuple(v << shift for v in bit_indices(joint))
                        spread[(v1 << kb) | v2] = vals if splice is None \
                            else tuple(splice(v) for v in vals)
            spread = _as_dense(
                spread, ((index.domain_size - 1) << kb) + index.domain_size)
            if splice is None:
                resolved.append((_R_DOUBLE, spread, s1, s2,
                                 below, shift, raise_by, top))
            else:
                resolved.append((_R_DOUBLE_F, spread, s1, s2,
                                 below, shift, raise_by, top,
                                 g_below, g_shift, g_above))
        else:
            getters = tuple((fd.get, fs) for fd, fs in pair_filters)
            # The trailing dict is the node's allowed-mask -> pre-shifted
            # values memo; mutable on purpose, it persists with the
            # cached program so bit scans amortize across counts.
            resolved.append((_R_GENERIC, candidates, getters,
                             tuple(general), below, shift, raise_by, top,
                             {}))
    entry = (tuple(resolved), None, free_factor)
    cache[cache_key] = entry
    if len(cache) > plan._BASE_DOMAIN_CACHE:
        cache.popitem(last=False)
    return entry


def _budgeted(items, budget):
    """Wrap a bag-table iteration with periodic budget charges.

    Only installed when a budget is active (the no-budget sweep keeps
    its bare dict iteration): one int AND per entry, the Budget
    consult amortized over a 256-entry stride — the DP twin of the
    backtracking kernels' 1024-node stride (DESIGN.md §14).
    """
    n = 0
    for item in items:
        n += 1
        if not n & 255:
            budget.charge(256)
        yield item


def count_plan_dp(plan, index) -> int:
    """``|hom| `` of a compiled source plan into a compiled target.

    ``plan`` is a :class:`~repro.hom.engine.SourcePlan`, ``index`` a
    :class:`~repro.hom.engine.TargetIndex`.  Semantics are identical to
    :func:`repro.hom.engine._count` with ``first_only=False``.

    This is the *packed columnar* kernel: every bag table is a flat
    ``dict[int, int]`` whose keys pack the bag assignment as
    ``Σ value_i << (i · key_bits)`` (``key_bits`` from the target's
    interned form), candidate values live in bitset domains, and the
    introduce transition runs the per-(plan, target) resolved programs
    of :func:`_resolved_intro` — binary facts become one pre-joined
    dict probe per table entry instead of a per-value membership test.
    """
    if should_inject("engine.step"):
        raise injected_exceeded()
    resolved, decided, free_factor = _resolved_intro(plan, index)
    if decided is not None:
        return decided
    budget = active_budget()

    dp = plan.dp_plan()
    nodes = dp.nice.nodes
    kb = index.key_bits
    vmask = (1 << kb) - 1
    tables: List[Optional[Dict[int, int]]] = [None] * len(nodes)
    peak = 0
    for position, node in enumerate(nodes):
        if tables[position] is not None:
            # A fused introduce+forget predecessor already produced
            # this forget node's table.
            continue
        kind = node.kind
        if kind == LEAF:
            tables[position] = {0: 1}
            continue
        if kind == JOIN:
            left_at, right_at = node.children
            left, right = tables[left_at], tables[right_at]
            tables[left_at] = tables[right_at] = None
            if len(left) > len(right):
                left, right = right, left
            joined: Dict[int, int] = {}
            right_get = right.get
            left_items = left.items() if budget is None \
                else _budgeted(left.items(), budget)
            follower = nodes[position + 1] \
                if position + 1 < len(nodes) else None
            if follower is not None and follower.kind == FORGET \
                    and follower.children == (position,):
                # Fused join+forget: the joined table is never
                # materialized — matched entries project and
                # accumulate straight into the forget's table.
                shift = follower.var_pos * kb
                below = (1 << shift) - 1
                above = shift + kb
                joined_get = joined.get
                for key, count in left_items:
                    other = right_get(key)
                    if other is not None:
                        shrunk = (key & below) | ((key >> above) << shift)
                        accumulated = joined_get(shrunk)
                        product = count * other
                        joined[shrunk] = product if accumulated is None \
                            else accumulated + product
                tables[position + 1] = joined
            else:
                for key, count in left_items:
                    other = right_get(key)
                    if other is not None:
                        joined[key] = count * other
                tables[position] = joined
            continue
        child_at = node.children[0]
        child = tables[child_at]
        tables[child_at] = None
        entries = child.items() if budget is None \
            else _budgeted(child.items(), budget)
        out: Dict[int, int] = {}
        store_at = position
        if kind == FORGET:
            var_pos = node.var_pos
            shift = var_pos * kb
            below = (1 << shift) - 1
            out_get = out.get
            if var_pos == len(node.order):
                # The forgotten variable holds the topmost packed field
                # of the child key: projection is a single mask.
                for key, count in entries:
                    shrunk = key & below
                    accumulated = out_get(shrunk)
                    out[shrunk] = count if accumulated is None \
                        else accumulated + count
            else:
                above = shift + kb
                for key, count in entries:
                    shrunk = (key & below) | ((key >> above) << shift)
                    accumulated = out_get(shrunk)
                    out[shrunk] = count if accumulated is None \
                        else accumulated + count
        else:  # INTRODUCE
            op = resolved[position]
            tag = op[0]
            if tag == _R_FREE:
                # Unconstrained introduce: every child entry grows by
                # the same pre-shifted candidate values.
                _, values, below, shift, raise_by, top = op
                if top:
                    # (key, value) -> grown is injective: plain stores.
                    out = {key | shifted: count
                           for key, count in child.items()
                           for shifted in values}
                else:
                    for key, count in entries:
                        head = (key & below) | ((key >> shift) << raise_by)
                        for shifted in values:
                            out[head | shifted] = count
            elif tag == _R_SINGLE:
                # One binary fact joins the new variable to one keyed
                # bag field (the common introduce on grids and chains):
                # one pre-joined dict probe per child entry — no
                # per-entry AND, no per-entry bit scan.
                _, spread, f_shift, below, shift, raise_by, top = op
                if top:
                    for key, count in entries:
                        for shifted in spread[(key >> f_shift) & vmask]:
                            out[key | shifted] = count
                else:
                    for key, count in entries:
                        values = spread[(key >> f_shift) & vmask]
                        if values:
                            head = (key & below) | \
                                ((key >> shift) << raise_by)
                            for shifted in values:
                                out[head | shifted] = count
            elif tag == _R_DOUBLE:
                # Two binary facts join the new variable to two keyed
                # bag fields (interior grid vertices): one pre-joined
                # probe on the packed pair of field values.
                _, spread, s1, s2, below, shift, raise_by, top = op
                if top:
                    for key, count in entries:
                        for shifted in spread[
                                (((key >> s1) & vmask) << kb)
                                | ((key >> s2) & vmask)]:
                            out[key | shifted] = count
                else:
                    for key, count in entries:
                        values = spread[
                            (((key >> s1) & vmask) << kb)
                            | ((key >> s2) & vmask)]
                        if values:
                            head = (key & below) | \
                                ((key >> shift) << raise_by)
                            for shifted in values:
                                out[head | shifted] = count
            elif tag == _R_FREE_F:
                # Unconstrained introduce fused with its forget:
                # extension values are pre-spliced, the head is spliced
                # once per child entry, stores accumulate.
                _, values, below, shift, raise_by, top, \
                    g_below, g_shift, g_above = op
                store_at = position + 1
                out_get = out.get
                for key, count in entries:
                    if not top:
                        key = (key & below) | ((key >> shift) << raise_by)
                    head = (key & g_below) | ((key >> g_above) << g_shift)
                    for shifted in values:
                        grown = head | shifted
                        accumulated = out_get(grown)
                        out[grown] = count if accumulated is None \
                            else accumulated + count
            elif tag == _R_SINGLE_F:
                _, spread, f_shift, below, shift, raise_by, top, \
                    g_below, g_shift, g_above = op
                store_at = position + 1
                out_get = out.get
                for key, count in entries:
                    values = spread[(key >> f_shift) & vmask]
                    if not values:
                        continue
                    if not top:
                        key = (key & below) | ((key >> shift) << raise_by)
                    head = (key & g_below) | ((key >> g_above) << g_shift)
                    for shifted in values:
                        grown = head | shifted
                        accumulated = out_get(grown)
                        out[grown] = count if accumulated is None \
                            else accumulated + count
            elif tag == _R_DOUBLE_F:
                _, spread, s1, s2, below, shift, raise_by, top, \
                    g_below, g_shift, g_above = op
                store_at = position + 1
                out_get = out.get
                for key, count in entries:
                    values = spread[
                        (((key >> s1) & vmask) << kb)
                        | ((key >> s2) & vmask)]
                    if not values:
                        continue
                    if not top:
                        key = (key & below) | ((key >> shift) << raise_by)
                    head = (key & g_below) | ((key >> g_above) << g_shift)
                    for shifted in values:
                        grown = head | shifted
                        accumulated = out_get(grown)
                        out[grown] = count if accumulated is None \
                            else accumulated + count
            elif tag == _R_GENERIC:
                # Generic: several pair filters and/or higher-arity
                # membership checks.  Allowed-mask -> pre-shifted
                # values memo: the distinct allowed masks of a node
                # are few, so the bit scan runs once per mask — and the
                # memo lives inside the cached resolved program, so it
                # amortizes across counts too.
                _, candidates, getters, general, below, shift, \
                    raise_by, top, spread = op
                for key, count in entries:
                    allowed = candidates
                    for lookup, other_shift in getters:
                        allowed &= lookup((key >> other_shift) & vmask, 0)
                        if not allowed:
                            break
                    if not allowed:
                        continue
                    values = spread.get(allowed)
                    if values is None:
                        values = tuple(v << shift
                                       for v in bit_indices(allowed))
                        spread[allowed] = values
                    head = key if top \
                        else (key & below) | ((key >> shift) << raise_by)
                    if general:
                        for shifted in values:
                            grown = head | shifted
                            for packed, term_positions in general:
                                image = 0
                                for t, bag_pos in enumerate(term_positions):
                                    image |= ((grown >> (bag_pos * kb))
                                              & vmask) << (t * kb)
                                if image not in packed:
                                    break
                            else:
                                # (key, value) -> grown is injective:
                                # plain set, no accumulation.
                                out[grown] = count
                    else:
                        for shifted in values:
                            out[head | shifted] = count
        if len(out) > peak:
            peak = len(out)
        if budget is not None:
            # Charge the fan-out too: a FREE introduce writes
            # |child|·|candidates| entries off a single charged input
            # stride, so the output side is accounted per node.
            budget.charge(len(out))
        tables[store_at] = out
    if peak > _DP_PACKED["dp_peak_entries"]:
        _DP_PACKED["dp_peak_entries"] = peak
    return tables[-1].get(0, 0) * free_factor


def count_homomorphisms_dp(source: Structure, target: Structure) -> int:
    """``|hom(source, target)|`` via tree-decomposition DP.

    Convenience entry point (fresh compilation each call, no
    factorization into components) — the property-test counterpart of
    :func:`repro.hom.search.count_homomorphisms_direct`.  Hot paths go
    through :class:`~repro.hom.engine.HomEngine` instead, which picks
    DP or backtracking per source by estimated cost.
    """
    from repro.hom.engine import TargetIndex, source_plan

    return count_plan_dp(source_plan(source), TargetIndex(target))
