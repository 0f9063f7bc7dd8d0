"""Exact Kauffman bracket skein calculus for torus-knot complements."""
