"""Legacy setuptools entry point (offline environments without wheel)."""
from setuptools import setup

setup()
