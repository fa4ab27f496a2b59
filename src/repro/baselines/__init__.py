"""Comparison algorithms from the paper's Section 2."""

from .anderson_miller import anderson_miller_list_rank, anderson_miller_list_scan
from .random_mate import random_mate_list_rank, random_mate_list_scan
from .serial import serial_list_rank, serial_list_scan
from .wyllie import wyllie_list_rank, wyllie_list_scan, wyllie_rounds
