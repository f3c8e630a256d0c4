"""Host-time benchmark of the AstriFlash simulator.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` runs one named workload (a list of ``RunSpec`` cells)
repeatedly, each repetition in a fresh process, and prints its
metrics; see ``perfbench/DESIGN.md`` for what is measured and why.
"""
