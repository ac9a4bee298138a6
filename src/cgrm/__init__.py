"""Exact constructions of the generalized Cremmer-Gervais solutions to the
classical Yang-Baxter equation, by three independent routes, with full identity
verification over the rationals."""
