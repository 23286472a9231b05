"""Table 1 regeneration: hyperparameters and their evaluation values.

Asserts the library's defaults reproduce the paper's table verbatim and
prints the rows.
"""

from repro.rl import Hyperparameters

#: (field, paper value) — Table 1 of the paper.
PAPER_TABLE_1 = [
    ("action_tick_length", 1.0),
    ("epsilon_initial", 1.0),
    ("epsilon_final", 0.05),
    ("discount_rate", 0.99),
    ("hidden_layer_size", 600),
    ("exploration_ticks", 7200),  # "2 h" at one action per second
    ("minibatch_size", 32),
    ("missing_entry_tolerance", 0.20),
    ("n_hidden_layers", 2),
    ("adam_learning_rate", 0.0001),
    ("sampling_tick_length", 1.0),
    ("sampling_ticks_per_observation", 10),
    ("target_network_update_rate", 0.01),
]


def test_table1_hyperparameters():
    hp = Hyperparameters.paper_values()

    print("\nTable 1 — hyperparameters used in the CAPES evaluation")
    for name, paper_value in PAPER_TABLE_1:
        ours = getattr(hp, name)
        status = "ok" if ours == paper_value else "MISMATCH"
        print(f"  {name:>34} = {ours!r:>8}  (paper: {paper_value!r}) {status}")
        assert ours == paper_value, f"{name}: {ours!r} != paper {paper_value!r}"
