"""``LogNPolicy`` against the reference partition it must agree with.

``ReferenceLogN`` keeps the partition written the plain way: at every slot
it tests every critical job for looseness, filters every subgroup, takes
each subgroup's head as the minimum over its live members, and tracks the
laxity floor over every critical job; each rebuild sorts every group
again to split it, and builds the residues for the load bound.  Every run
must match the current policy in every field a ``SimulationRun`` carries.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st
from test_integer_reference import outcome

from machmin import logn
from machmin.adversary import PROFILES, gen_random
from machmin.engine import edf_key, edf_select, simulate
from machmin.logn import LogNPolicy, build_groups
from machmin.model import Instance, Job, JobState


def reference_build_groups(states, t):
    ordered = sorted(states, key=lambda s: (-s.job.deadline, s.job.release, s.job.id))
    groups, anchors = [], []
    for state in ordered:
        window = state.job.deadline - t
        for i, anchor in enumerate(anchors):
            if window <= anchor.job.deadline - t - anchor.remaining:
                groups[i].append(state.job.id)
                if edf_key(state) < edf_key(anchor):
                    anchors[i] = state
                break
        else:
            groups.append([state.job.id])
            anchors.append(state)
    return groups


def reference_split_group(group, states, mu):
    ordered = sorted(group, key=lambda j: edf_key(states[j]))
    subgroups = [[] for _ in range(min(mu, max(len(ordered), 1)))]
    for rank, job_id in enumerate(ordered):
        subgroups[rank % mu].append(job_id)
    return [s for s in subgroups if s]


class ReferenceLogN(LogNPolicy):
    def _update_partition(self, t, active):
        arrivals, self._arrivals = self._arrivals, []
        self._critical &= active.keys()
        live = {j: active[j] for j in self._critical}
        still, residues = logn.reclassify(live, t, self.alpha)
        for residue in residues:
            self._note_entry_ratio(active[residue.id].job, residue.processing, t)
        self._critical = still
        fresh_safe = []
        for job in arrivals:
            if logn.is_loose(job.processing, job.deadline - t, self.alpha):
                fresh_safe.append(Job(job.id, t, job.deadline, job.processing))
                self._note_entry_ratio(job, job.processing, t)
            else:
                self._critical.add(job.id)
        if residues + fresh_safe:
            self._admit_safe(residues + fresh_safe)
        if arrivals:
            self._rebuild(t, active)
        else:
            self._subgroups = [
                [j for j in sub if j in self._critical and j in active]
                for sub in self._subgroups
            ]
            self._subgroups = [s for s in self._subgroups if s]

    def _rebuild(self, t, active):
        states = [active[j] for j in sorted(self._critical)]
        groups = reference_build_groups(states, t)
        self._mu = logn.choose_mu(max(self._released, 1), self.alpha)
        self._h = len(groups)
        by_id = {s.job.id: s for s in states}
        self._subgroups = []
        for group in groups:
            self._subgroups.extend(reference_split_group(group, by_id, self._mu))
        self._alloc_critical = max(self._alloc_critical, self._h * self._mu)
        if self._critical:
            residues = [
                Job(j, t, active[j].job.deadline, active[j].remaining)
                for j in sorted(self._critical)
            ]
            span = max(r.deadline for r in residues) - t
            m_t_hat = -(-sum(r.processing for r in residues) // span)
            if self._h > 1 + self._group_factor * m_t_hat:
                m_t_hat = logn.min_machines(residues, m_t_hat)
                self._monitor_solves += 1
        else:
            m_t_hat = 0
        self._rebuilds.append((t, self._h, self._mu, m_t_hat))

    def _monitor_laxity_floor(self, t, active):
        best = self._min_critical_ratio
        for j in self._critical:
            state = active[j]
            job = state.job
            best = logn._lower_ratio(best, job.deadline - t - state.remaining, job.laxity)
        self._min_critical_ratio = best

    def select(self, t, active):
        self._update_partition(t, active)
        self._monitor_laxity_floor(t, active)
        self._safe &= active.keys()
        chosen = edf_select(map(active.__getitem__, self._safe), t, self._safe_budget)
        for sub in self._subgroups:
            live = [active[j] for j in sub if j in active]
            if live:
                chosen.add(min(live, key=edf_key).job.id)
        return chosen


def both_outcomes(instance, alpha):
    return (
        outcome(simulate(instance, LogNPolicy(1, alpha))),
        outcome(simulate(instance, ReferenceLogN(1, alpha))),
    )


ALPHAS = st.sampled_from([Fraction(1, 2), Fraction(1, 3), Fraction(1, 4)])


@given(st.sampled_from(PROFILES), st.integers(1, 60), st.integers(0, 2**16), ALPHAS)
@settings(max_examples=60, deadline=None)
def test_logn_runs_match_the_reference_partition(profile, n, seed, alpha):
    got, expected = both_outcomes(gen_random(profile, n, seed).instance, alpha)
    assert got == expected


def test_critical_jobs_turn_loose_after_running_beside_an_idle_one():
    # a chain of tight jobs, each window inside the laxity of the one before,
    # makes one group of 7; 8 releases give mu = 6, so jobs 0 and 6 share a
    # subgroup and job 0 waits while job 6 runs.  At t = 1 jobs 1, 2, 4 and
    # 5 have run one unit each and turn loose, at t = 2 job 3
    chain = [(200, 101), (99, 50), (49, 25), (24, 13), (11, 6), (5, 3), (2, 2)]
    jobs = [Job(i, 0, d, p) for i, (d, p) in enumerate(chain)]
    instance = Instance([*jobs, Job(7, 0, 10, 1)])
    got, expected = both_outcomes(instance, Fraction(1, 2))
    assert got == expected
    assert got["extras"]["rebuilds"] == [(0, 1, 6, 1)]
    assert 0 not in got["slots"][0] | got["slots"][1]
    assert got["extras"]["min_safe_entry_ratio"] == Fraction(97, 99)
    assert not got["misses"]


@given(
    st.lists(
        st.tuples(st.integers(0, 40), st.integers(1, 20), st.integers(0, 20)),
        max_size=12,
    ),
    st.integers(0, 40),
)
def test_build_groups_matches_the_reference(shapes, t):
    # remaining work down to 0, which no active job has, keeps the anchor
    # rule on ties in the deadline
    states = []
    for i, (release, p, slack) in enumerate(shapes):
        job = Job(i, release, release + p + slack, p)
        states.append(JobState(job, p * i % (p + 1)))
    assert build_groups(states, t) == reference_build_groups(states, t)
