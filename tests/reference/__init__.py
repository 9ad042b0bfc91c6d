"""Independent reference implementations the production code is tested against."""
