"""Host-cost benchmark of the Cedar reproduction.

``python -m bench`` runs the workloads in ``bench/workloads.py`` one
fresh process per rep and reports end-to-end host cost plus, from a
traced pass, where that cost goes layer by layer.  See
``bench/README.md``.
"""

#: the seed the correctness pins in ``bench/pins.json`` hold at.
DEFAULT_SEED = 7

#: workloads whose inputs come from the seed; the others run fixed
#: inputs, so their pins hold at every seed.
SEEDED = ("soak-stream",)
