"""Result analysis: persist experiment reports, compare against the
paper's expected bands, and summarize reproduction status — the
"analysis scripts" side of the artifact."""
