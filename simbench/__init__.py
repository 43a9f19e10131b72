"""Host-cost benchmark of the CC-NIC simulator (see ``README.md``)."""
