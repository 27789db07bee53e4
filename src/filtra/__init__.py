"""Logical filters, congruences, and equational-definability checks on finite
algebras."""
