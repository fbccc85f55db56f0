package engine

// WithoutLPCaching returns cfg with every Hetis dispatcher's solver
// caching layer switched off, for the cache-free twin tests.
func WithoutLPCaching(cfg Config) Config {
	cfg.noLPCaching = true
	return cfg
}
