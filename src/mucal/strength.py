"""Graded belief strengths: classification, propagation, explanation.

A strength judgment for (agent, moment, formula) combines two routes:

* the definition cascade - acceptable, presumption-in-favor, beyond
  reasonable doubt, evident and certain are evaluated independently
  through the reasonableness comparison, each with its evidence trail;
* the propagation store - perceptions seed certainty, and the
  strength-propagating closure rule derives new judgments at the minimum
  premise level, guarded by the maximum level spread u.

The final judgment merges both: levels propagated into the store subsume
all lower levels (the subsumption theorem), and every classify result is
audited for downward closure.
"""

from __future__ import annotations

from .errors import OrderingError, ProofError, UnknownNameError
from .logic import (
    And, Believes, Const, Falsum, Formula, FrozenRecord, Perceives, StrengthLevel,
    Withholds, constant_symbols, expand_sugar, formula_key, is_belief_at,
    negation_of,
)
from .prover import Proof, prove
from .reasonable import ReasonEngine, ReasonablenessVerdict
from .syntax import print_formula
from . import models


_set = object.__setattr__


class TrailEntry(FrozenRecord):
    __slots__ = ("kind", "detail", "level", "verdict")

    def __init__(self, kind: str, detail: str, level: int | None = None,
                 verdict: ReasonablenessVerdict | None = None) -> None:
        _set(self, "kind", kind)  # cascade | store | rsp | rsb | audit
        _set(self, "detail", detail)
        _set(self, "level", level)
        _set(self, "verdict", verdict)


class StrengthJudgment(FrozenRecord):
    __slots__ = ("agent", "moment", "formula", "level", "satisfied_levels", "trail")

    def __init__(self, agent: str, moment: str, formula: Formula, level: StrengthLevel,
                 satisfied_levels: frozenset, trail: tuple) -> None:
        _set(self, "agent", agent)
        _set(self, "moment", moment)
        _set(self, "formula", formula)
        _set(self, "level", level)
        _set(self, "satisfied_levels", satisfied_levels)
        _set(self, "trail", trail)

    @property
    def content_key(self) -> str:
        return formula_key(self.formula)


def check_subsumption(j: StrengthJudgment) -> bool:
    """Downward closure of the satisfied levels; the subsumption theorem
    as a runtime self-check."""
    levels = j.satisfied_levels
    for p in levels:
        for q in range(1, p):
            if q not in levels:
                return False
    return True


class BeliefStore:
    """Judgments keyed by (agent, moment, content).

    Insertion enforces the belief consistency condition on stated levels:
    a judgment is rejected when its negation is already held at the same
    level.  Falsum is never believed at any level.  A higher level for the
    same content upgrades the entry.
    """

    def __init__(self) -> None:
        self.judged: dict = {}
        self.diagnostics: list = []

    def get(self, agent: str, moment: str, content_key: str) -> StrengthJudgment | None:
        return self.judged.get((agent, moment, content_key))

    def add(self, j: StrengthJudgment) -> bool:
        if j.level == StrengthLevel.NONE:
            return False
        if j.content_key == formula_key(Falsum()):
            self.diagnostics.append(
                f"rejected: believing falsum at level {int(j.level)} for "
                f"({j.agent},{j.moment}) violates the belief consistency condition"
            )
            return False
        key = (j.agent, j.moment, j.content_key)
        neg_key = (j.agent, j.moment, formula_key(negation_of(j.formula)))
        rival = self.judged.get(neg_key)
        if rival is not None and rival.level == j.level:
            self.diagnostics.append(
                f"rejected: {print_formula(j.formula)} and its negation would "
                f"both be held at level {int(j.level)} for ({j.agent},{j.moment})"
            )
            return False
        existing = self.judged.get(key)
        if existing is not None and existing.level >= j.level:
            return False
        self.judged[key] = j
        return True


# ---------------------------------------------------------------------------
# Engine

class StrengthEngine:
    """Binds a KB to a reasonableness engine and a belief store."""

    def __init__(self, kb):
        self.kb = kb
        self.reason = ReasonEngine(kb)
        self.store = BeliefStore()
        self._entail_cache: dict = {}
        self._seeded: set = set()

    # -- seeding ----------------------------------------------------------
    #
    # A frame (agent, moment) reads only the agent's judgments at the
    # moment or earlier (`_held`), so seeding stores only those.

    def seed_certain(self, agent: str, moment: str) -> None:
        """Certain axioms are level-5 beliefs of the agent at the moment and
        at every earlier one."""
        order = self.kb.order()
        for m in order.moments:
            if order.le(m, moment):
                for ax in self.kb.certain_axioms():
                    self.store.add(StrengthJudgment(
                        agent, m, ax.formula, StrengthLevel.CERTAIN,
                        frozenset(range(1, 6)),
                        (TrailEntry("store", f"certain axiom {ax.label}", 5),),
                    ))

    def seed_percepts(self, agent: str, moment: str) -> None:
        """The agent's percepts, lifted to each later moment up to the
        frame's."""
        order = self.kb.order()
        for ax in self.kb.axioms:
            f = expand_sugar(ax.formula)
            if (
                isinstance(f, Perceives) and isinstance(f.agent, Const)
                and f.agent.name == agent and isinstance(f.moment, Const)
            ):
                for t2 in order.moments:
                    if order.lt(f.moment.name, t2) and order.le(t2, moment):
                        self.infer_rsp(f, t2)

    def seed_candidates(self, agent: str, moment: str) -> None:
        """Classify declared candidates and stated beliefs at the frame and
        store what the cascade grades positively.

        Contents already derivable from the agent's projection are skipped:
        their grade arrives through the propagation rule from the beliefs
        that derive them, and a cascade-graded duplicate at an intermediate
        level would distort the level windows of the forward pass.
        """
        key = (agent, moment)
        if key in self._seeded:
            return
        self._seeded.add(key)
        todo = [c.formula for c in sorted(self.kb.candidates, key=lambda c: c.label)]
        for ax in self.kb.axioms:
            f = expand_sugar(ax.formula)
            if not ax.certain and is_belief_at(f, agent, moment):
                todo.append(f.body)
        for content in todo:
            if self.reason.provable(agent, moment, content) is not None:
                continue
            j = self._classify_cascade(agent, moment, content)
            if j.level != StrengthLevel.NONE:
                self.store.add(j)

    # -- inference schemata ----------------------------------------------

    def infer_rsp(self, percept: Perceives, t2: str) -> StrengthJudgment:
        """Perception at an earlier moment yields a certain belief."""
        if not isinstance(percept, Perceives):
            raise ProofError("premise is not a perception")
        if not (isinstance(percept.agent, Const) and isinstance(percept.moment, Const)):
            raise ProofError("perception frame must be ground")
        order = self.kb.order()
        t1 = percept.moment.name
        if t2 not in order.moments:
            raise UnknownNameError(f"unknown moment {t2!r}")
        if not order.lt(t1, t2):
            raise OrderingError(f"{t1!r} is not strictly before {t2!r}")
        j = StrengthJudgment(
            percept.agent.name, t2, percept.body, StrengthLevel.CERTAIN,
            frozenset(range(1, 6)),
            (TrailEntry("rsp", f"perceived at {t1}, lifted to {t2}", 5),),
        )
        self.store.add(j)
        return j

    def infer_rsb(self, premises: list, conclusion: Formula, t: str,
                  u: int | None = None) -> StrengthJudgment | None:
        """Level-propagating closure: fires at min premise level when the
        level spread is within u; returns None when the guard blocks."""
        if not premises:
            raise ProofError("closure needs at least one premise")
        agents = {p.agent for p in premises}
        if len(agents) != 1:
            raise ProofError("closure premises must share an agent")
        agent = premises[0].agent
        order = self.kb.order()
        if t not in order.moments:
            raise UnknownNameError(f"unknown moment {t!r}")
        for p in premises:
            if not order.le(p.moment, t):
                raise OrderingError(
                    f"premise moment {p.moment!r} is not before-or-at {t!r}"
                )
        levels = [int(p.level) for p in premises]
        u_val = self.kb.params.u if u is None else u
        spread = max(levels) - min(levels)
        if spread > u_val:
            self.store.diagnostics.append(
                f"propagation blocked: level spread {spread} > u = {u_val}"
            )
            return None
        proof = self._entail([p.formula for p in premises], conclusion)
        if proof is None:
            raise ProofError(
                "closure premises do not derive the conclusion within budget"
            )
        level = StrengthLevel(min(levels))
        cited = ", ".join(sorted(print_formula(p.formula) for p in premises))
        return StrengthJudgment(
            agent, t, conclusion, level,
            frozenset(range(1, int(level) + 1)),
            (TrailEntry(
                "rsb",
                f"derived from [{cited}] at levels {sorted(levels)} "
                f"(spread {max(levels) - min(levels)} <= u={u_val})",
                int(level),
            ),),
        )

    def _entail(self, contents: list, conclusion: Formula) -> Proof | None:
        key = (
            frozenset(formula_key(c) for c in contents),
            formula_key(conclusion),
        )
        if key not in self._entail_cache:
            # closure entailments are shallow; a reduced depth keeps the
            # forward pass tractable
            res = prove(tuple(contents), conclusion,
                        depth=min(self.kb.params.proof_depth, 3),
                        universe=self.kb.universe(tuple(contents) + (conclusion,)))
            self._entail_cache[key] = res.proof if res.outcome == "proved" else None
        return self._entail_cache[key]

    # -- saturation --------------------------------------------------------

    def saturate(self, rounds: int, agent: str, moment: str) -> BeliefStore:
        """Bounded forward closure at one frame: the certain axioms and
        percept lifting once, then `rounds` passes of the propagation rule
        over premise subsets of size <= 3.  Both names must be declared."""
        self.kb.frame_terms(agent, moment)
        self.seed_certain(agent, moment)
        self.seed_percepts(agent, moment)
        self.seed_candidates(agent, moment)
        conclusions = [Falsum()] + [
            c.formula for c in sorted(self.kb.candidates, key=lambda c: c.label)
        ]
        for _ in range(rounds):
            if not self._rsb_pass(agent, moment, conclusions):
                break
        return self.store

    def _held(self, agent: str, moment: str) -> list:
        """The agent's stored judgments at the moment or earlier, in key order."""
        order = self.kb.order()
        return [
            j for (a, m, _), j in sorted(self.store.judged.items())
            if a == agent and order.le(m, moment)
        ]

    def _rsb_pass(self, agent: str, moment: str, conclusions: list) -> bool:
        """One forward pass of the propagation rule at a frame.

        For each level window of width u, conclusions are proved once from
        the union of the window's believed contents (if the union cannot
        derive a conclusion, no subset can).  A firing conclusion is then
        rebuilt as rule applications over at most three premises, chaining
        through conjunction judgments when the proof used more.  Windows
        whose contents are jointly inconsistent only ever fire falsum,
        which the store rejects with a diagnostic.
        """
        pool: dict = {}
        for j in self._held(agent, moment):
            cur = pool.get(j.content_key)
            if cur is None or j.level > cur.level:
                pool[j.content_key] = j
        if not pool:
            return False
        u = self.kb.params.u
        levels_present = sorted({int(j.level) for j in pool.values()})
        windows: dict = {}
        for lo in levels_present:
            members = tuple(
                pool[k] for k in sorted(pool)
                if lo <= int(pool[k].level) <= lo + u
            )
            windows.setdefault(frozenset(j.content_key for j in members), members)

        added = False
        for wkey in sorted(windows, key=sorted):
            members = windows[wkey]
            contents = tuple(j.formula for j in members)
            max_level = max(int(j.level) for j in members)
            have = set()
            for c in contents:
                have |= constant_symbols(c)
            union_ok = models.consistent(
                contents,
                atom_budget=self.kb.params.consistency_depth,
                universe=self.kb.universe(contents),
            ) == models.CONSISTENT
            for conc in conclusions:
                if isinstance(conc, Falsum):
                    if union_ok:
                        continue
                elif not union_ok or not constant_symbols(conc) <= have:
                    continue
                ckey = (agent, moment, formula_key(conc))
                existing = self.store.judged.get(ckey)
                if existing is not None and int(existing.level) >= max_level:
                    continue
                proof = self._entail(list(contents), conc)
                if proof is None:
                    continue
                used_keys = {formula_key(p) for p in proof.premises_used}
                used = [j for j in members if j.content_key in used_keys]
                if not used:
                    used = [members[0]]
                if self._fire_chain(used, conc, moment):
                    added = True
        return added

    def _fire_chain(self, used: list, conc: Formula, moment: str) -> bool:
        """Apply the propagation rule over at most three premises at a time,
        conjoining the head premises into intermediate judgments when the
        derivation needs more."""
        current = sorted(used, key=lambda j: j.content_key)
        while len(current) > 3:
            head, rest = current[:3], current[3:]
            conj = And(tuple(j.formula for j in head))
            try:
                cj = self.infer_rsb(head, conj, moment)
            except ProofError:
                return False
            if cj is None:
                return False
            self.store.add(cj)
            current = [cj] + rest
        try:
            j = self.infer_rsb(current, conc, moment)
        except ProofError:
            return False
        if j is None:
            return False
        return self.store.add(j)

    # -- classification ----------------------------------------------------

    def default_pool(self, agent: str, moment: str, exclude: Formula) -> list:
        """Stored belief contents at the frame-or-earlier plus declared
        candidates, minus the formula under classification."""
        seen: dict = {}
        for j in self._held(agent, moment):
            seen.setdefault(j.content_key, j.formula)
        for c in sorted(self.kb.candidates, key=lambda c: c.label):
            seen.setdefault(formula_key(c.formula), c.formula)
        skip = formula_key(exclude)
        return [seen[k] for k in sorted(seen) if k != skip]

    def classify(self, agent: str, moment: str, f: Formula,
                 pool: list | None = None) -> StrengthJudgment:
        """Grade a formula through the definition cascade merged with the
        propagation store, with the full evidence trail."""
        self.kb.frame_terms(agent, moment)
        if pool is None:
            pool = self.default_pool(agent, moment, f)
        j = self._classify_cascade(agent, moment, f, pool)
        stored = self.store.get(agent, moment, formula_key(f))
        satisfied = set(j.satisfied_levels)
        trail = list(j.trail)
        listing = ", ".join(print_formula(p) for p in pool) or "(empty)"
        trail.append(TrailEntry("pool", f"comparison pool: {listing}"))
        if stored is not None:
            satisfied |= set(range(1, int(stored.level) + 1))
            trail.append(TrailEntry(
                "store",
                f"propagation holds it at level {int(stored.level)}: "
                + "; ".join(t.detail for t in stored.trail),
                int(stored.level),
            ))
        level = StrengthLevel(max(satisfied)) if satisfied else StrengthLevel.NONE
        out = StrengthJudgment(agent, moment, f, level, frozenset(satisfied), tuple(trail))
        if not check_subsumption(out):
            out = StrengthJudgment(
                agent, moment, f, level, frozenset(satisfied),
                tuple(trail) + (TrailEntry(
                    "audit",
                    "subsumption violation: satisfied levels are not downward "
                    f"closed ({sorted(satisfied)})",
                ),),
            )
        return out

    def _classify_cascade(self, agent: str, moment: str, f: Formula,
                          pool: list | None = None) -> StrengthJudgment:
        a_t, m_t = self.kb.frame_terms(agent, moment)
        bel = Believes(a_t, m_t, f)
        bel_neg = Believes(a_t, m_t, negation_of(f))
        withhold = Withholds(a_t, m_t, f)
        cmp = self.reason.more_reasonable

        satisfied: set = set()
        trail: list = []

        v_w_over_b = cmp(agent, moment, withhold, bel)
        if not v_w_over_b.holds:
            satisfied.add(1)
        trail.append(TrailEntry(
            "cascade",
            "level 1 (acceptable) holds iff withholding is not more reasonable "
            "than believing",
            1 if 1 in satisfied else None,
            v_w_over_b,
        ))

        v_b2 = cmp(agent, moment, bel, bel_neg)
        if v_b2.holds:
            satisfied.add(2)
        trail.append(TrailEntry(
            "cascade",
            "level 2 (some presumption in favor) holds iff believing beats "
            "believing the negation",
            2 if 2 in satisfied else None,
            v_b2,
        ))

        v_b3 = cmp(agent, moment, bel, withhold)
        if v_b3.holds:
            satisfied.add(3)
        trail.append(TrailEntry(
            "cascade",
            "level 3 (beyond reasonable doubt) holds iff believing beats "
            "withholding",
            3 if 3 in satisfied else None,
            v_b3,
        ))

        if 3 in satisfied:
            competitors = []
            pool = pool if pool is not None else []
            for psi in pool:
                v = cmp(agent, moment, Believes(a_t, m_t, psi), bel)
                if v.holds:
                    competitors.append((psi, v))
            if not competitors:
                satisfied.add(5)
                satisfied.add(4)
                trail.append(TrailEntry(
                    "cascade",
                    f"level 5 (certain): no competitor in the pool of "
                    f"{len(pool)} beats believing it",
                    5,
                ))
            else:
                names = ", ".join(print_formula(c) for c, _ in competitors[:4])
                trail.append(TrailEntry(
                    "cascade",
                    f"level 5 fails: more reasonable beliefs exist ({names})",
                    None,
                ))
                if all(self._b5_holds(agent, moment, c, pool) for c, _ in competitors):
                    satisfied.add(4)
                    trail.append(TrailEntry(
                        "cascade",
                        "level 4 (evident): every more reasonable belief is "
                        "itself certain",
                        4,
                    ))
                else:
                    trail.append(TrailEntry(
                        "cascade",
                        "level 4 fails: some more reasonable belief is not "
                        "certain",
                        None,
                    ))

        level = StrengthLevel(max(satisfied)) if satisfied else StrengthLevel.NONE
        return StrengthJudgment(agent, moment, f, level, frozenset(satisfied), tuple(trail))

    def _b5_holds(self, agent: str, moment: str, psi: Formula, pool: list) -> bool:
        a_t, m_t = self.kb.frame_terms(agent, moment)
        bel = Believes(a_t, m_t, psi)
        if not self.reason.more_reasonable(agent, moment, bel,
                                           Withholds(a_t, m_t, psi)).holds:
            return False
        for other in pool:
            if formula_key(other) == formula_key(psi):
                continue
            if self.reason.more_reasonable(
                agent, moment, Believes(a_t, m_t, other), bel
            ).holds:
                return False
        return True


# ---------------------------------------------------------------------------
# Explanations

_LEVEL_COMPARISON = {
    1: "withholding it is not more reasonable than believing it",
    2: "believing it is more reasonable than believing its negation",
    3: "believing it is more reasonable than withholding it",
    4: "it is beyond reasonable doubt and every more reasonable belief is certain",
    5: "it is beyond reasonable doubt and nothing is more reasonable to believe",
}


def verdict_detail(v: ReasonablenessVerdict) -> str:
    if v.clause == "I":
        return (
            f"clause I compared declared probabilities "
            f"{v.evidence.get('pr_left')} vs {v.evidence.get('pr_right')}"
        )
    if v.clause == "II":
        return (
            f"clause II compared proof costs "
            f"{v.evidence.get('rho_left')} vs {v.evidence.get('rho_right')}"
        )
    if v.clause == "III":
        left = v.evidence.get("delta_left")
        right = v.evidence.get("delta_right")

        def side(w) -> str:
            if w is None:
                return "no consistent revision"
            adds = ",".join(w.theta_labels) or "-"
            drops = ",".join(w.lam_labels) or "-"
            return f"delta={w.distance} (add {adds}; remove {drops})"

        detail = f"clause III compared revision distances: {side(left)} vs {side(right)}"
        if v.note:
            detail += f" [{v.note}]"
        return detail
    return v.note or "no clause applied"


def explain(j: StrengthJudgment) -> dict:
    """Two-level explanation schema: the strength statement in words, then
    the clause evidence behind each comparison in the trail."""
    text = print_formula(j.formula)
    if j.level == StrengthLevel.NONE:
        headline = f"no strength level is assigned to {text}"
    else:
        headline = (
            f"{j.level.label}: for agent {j.agent} at {j.moment}, "
            f"{_LEVEL_COMPARISON[int(j.level)]} ({text})"
        )
    details = []
    for t in j.trail:
        if t.verdict is not None:
            details.append({
                "comparison": t.detail,
                "satisfied": t.level is not None,
                "comparison_holds": t.verdict.holds,
                "clause": t.verdict.clause,
                "evidence": verdict_detail(t.verdict),
            })
        else:
            entry = {"comparison": t.detail}
            if t.kind != "pool":
                entry["note"] = t.kind
            if t.level is not None:
                entry["satisfied"] = True
            details.append(entry)
    pool = ""
    for t in j.trail:
        if t.kind == "pool":
            pool = t.detail.split(": ", 1)[1]
    return {
        "agent": j.agent,
        "moment": j.moment,
        "formula": text,
        "level": int(j.level),
        "level_name": j.level.label,
        "headline": headline,
        "satisfied_levels": sorted(j.satisfied_levels),
        "pool": pool,
        "details": details,
    }
