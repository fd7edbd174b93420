"""Multi-cell network energy saving simulator with a from-scratch DQN controller.

Subpackages:
  radio     -- antenna gains, fading, throughput formulas
  network   -- topology, received power, association, constraint checks
  env       -- MDP wrapper (state/action encoding, step/reset, gated reward)
  dqn       -- numpy multilayer perceptron, replay buffer, training loop
  baselines -- the Max and Random comparison policies
  harness   -- scenario generation, experiments, sweeps, CSV/SVG output
"""

__version__ = "0.1.0"
