"""The agent learns: on a 4-node ring, training must bring the greedy
policy to KSP-FF's blocking, on request streams it was not trained on.

The fingerprints pin bits and the finite-difference tests pin gradients,
but a sign error in the advantage, the entropy term or the update
direction keeps both green; these tests read the blocking it causes.
"""

from dataclasses import replace

import numpy as np
import pytest

from rmsalab import RunConfig, forward_policy
from rmsalab.features import MISSING_BLOCK

RING = ("nodes 4\nlink 0 0 1 100\nlink 1 1 2 100\nlink 2 2 3 100\n"
        "link 3 3 0 100\n")
HELD_OUT_SEEDS = (101, 102)
HELD_OUT_REQUESTS = 5000


def ring_config(tmp_path, mode, epochs):
    """Two paths per pair, 8 slots and one-slot demands at 16 Erlang: the
    second path is the only way around a full first one, so KSP-FF blocks
    well below SP-FF."""
    topo = tmp_path / "ring.topo"
    topo.write_text(RING)
    return RunConfig(topology=str(topo), slot_count=8, k_paths=2, j_blocks=1,
                     bandwidth_min=12.5, bandwidth_max=12.5, arrival_rate=1.0,
                     mean_duration=16.0, hidden_layers=2, hidden_width=32,
                     batch_size=20, learning_rate=1e-3, workers=2, mode=mode,
                     epochs=epochs)


def held_out_blocking(cfg, network, params):
    """Blocked shares of the greedy policy, KSP-FF and SP-FF, each over the
    same held-out streams, and the agent's avoidable-block share: the
    requests it blocked where KSP-FF's first usable block existed, which
    is a start field in the state other than the missing-block sentinel."""
    encoder = cfg.encoder(network[0])
    base, group = 2 * network[0].num_nodes + 1, 2 * cfg.j_blocks + 3
    starts = slice(base, base + cfg.k_paths * group, group)
    agent = ksp = sp = avoidable = 0
    for seed in HELD_OUT_SEEDS:
        env, ksp_env, sp_env = (replace(cfg, seed=seed).env(*network)
                                for _ in range(3))
        for _ in range(HELD_OUT_REQUESTS):
            req = env.arrive()
            state = encoder.encode(req, env.spectrum, env.candidate_paths(req))
            action = int(np.argmax(forward_policy(params, state)))
            if not env.step(req, action).accepted:
                agent += 1
                avoidable += bool((state[starts] != MISSING_BLOCK[0]).any())
            ksp += not ksp_env.ksp_ff(ksp_env.arrive()).accepted
            sp += not sp_env.sp_ff(sp_env.arrive()).accepted
    total = len(HELD_OUT_SEEDS) * HELD_OUT_REQUESTS
    return agent / total, ksp / total, sp / total, avoidable / total


def learned_blocking(tmp_path, mode, epochs):
    cfg = ring_config(tmp_path, mode, epochs)
    network = cfg.network()
    result = cfg.train(*network, tmp_path / "train")
    assert result.final_epoch == epochs
    return held_out_blocking(cfg, network, result.params)


# Margins, sized from training seeds 0-9 in each mode; the tests train at
# seed 0, the default. On held-out streams 101 and 102, 5000 requests each,
# KSP-FF blocks 0.0801 and SP-FF 0.1215. Across the ten seeds the agent
# read -0.0017 to +0.0025 against KSP-FF in flx after 1000 epochs and
# -0.0015 to +0.0053 in ep after 3000, with avoidable shares of at most
# 0.0087 and 0.0007, and it stayed at least 0.036 below SP-FF. KSP_MARGIN
# and AVOIDABLE_BOUND are about twice the worst seed, SP_GAP about half the
# closest. At seed 0 the advantage-sign mutant (values - returns) reads
# 0.524 blocked in flx and 0.514 in ep, 0.448 and 0.432 of it avoidable.
KSP_MARGIN = 0.01
SP_GAP = 0.02
AVOIDABLE_BOUND = 0.02


def check_learned(agent, ksp, sp, avoidable):
    assert agent <= ksp + KSP_MARGIN, (agent, ksp)
    assert agent <= sp - SP_GAP, (agent, sp)
    assert avoidable <= AVOIDABLE_BOUND, avoidable


def test_flx_agent_learns_ksp_ff_on_a_ring(tmp_path):
    check_learned(*learned_blocking(tmp_path, "flx", 1000))


@pytest.mark.slow
def test_ep_agent_learns_ksp_ff_on_a_ring(tmp_path):
    # episode mode needs 3000 epochs at these settings: after 1000 two of
    # the ten seeds still read +0.016 and +0.023 against KSP-FF
    check_learned(*learned_blocking(tmp_path, "ep", 3000))
